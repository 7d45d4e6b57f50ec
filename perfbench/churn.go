package main

// Traced churn_repair: spans around each scenario.Load and
// scenario.RunSampled of the corpus, and around scenario.NewWorld (the
// starting populations, timed on their own); counts come from the perf
// registry and the runs' telemetry planes.

import (
	"fmt"

	"hetgrid/internal/netsim"
	"hetgrid/internal/scenario"
)

const (
	spanLoad  = "scenario.Load"
	spanWorld = "scenario.NewWorld"
	spanRun   = "scenario.RunSampled"
)

func traceChurn(seed int64, env *traceEnv) error {
	wall0, err := env.entry(func() (outcome, error) { return churnRun(seed, nil, nil) })
	if err != nil {
		return err
	}

	// The starting populations, outside the profile: the entry call
	// builds them inside RunSampled.
	nodes := 0
	for _, src := range churnCorpus(seed) {
		spec, err := scenario.Load(src)
		if err != nil {
			return err
		}
		nodes += spec.Grid.Nodes
		sp := env.rec.begin(spanWorld, -1)
		_, err = scenario.NewWorld(spec)
		env.rec.end(sp)
		if err != nil {
			return err
		}
	}

	// Per-scenario figures, read as each result arrives: kind and byte
	// totals summed over a counter series' per-interval deltas.
	var (
		o                               outcome
		placed, meanView, missing, sent float64
		kinds                           = map[netsim.Kind]float64{}
		kb                              float64
	)
	tel := func(res *scenario.Result, series string) float64 {
		s := res.Telemetry.SeriesByName(series)
		if s == nil {
			env.problems = append(env.problems, fmt.Sprintf("telemetry series %s missing", series))
			return 0
		}
		sum := 0.0
		for _, p := range s.Points() {
			sum += p.V
		}
		return sum
	}
	each := func(res *scenario.Result) {
		placed += res.Metrics["placed"] + res.Metrics["requeued"]
		missing += res.Metrics["broken_missing"]
		if p, ok := res.Telemetry.SeriesByName("proto.mean_view").Last(); ok {
			meanView += p.V / churnScenarios
		}
		for _, k := range protoKinds {
			kinds[k] += tel(res, fmt.Sprintf("net.%s.msgs_sent", k))
		}
		kb += tel(res, "net.bytes_sent") / 1024
		sent += tel(res, "net.msgs_sent")
	}
	before := snapPerf()
	wall1, err := env.profiled(func() error {
		var err error
		o, err = churnRun(seed, func(name string, call func() error) error {
			sp := env.rec.begin(name, -1)
			defer env.rec.end(sp)
			return call()
		}, each)
		return err
	})
	if err != nil {
		return err
	}
	after := snapPerf()
	env.check("traced run", o)

	st := env.rec.stats()
	run := get(st, spanRun)
	world := get(st, spanWorld).total.Seconds()
	events := before.delta(after, "sim.events_fired")
	msgs := before.delta(after, "net.msgs_sent")
	m := env.m
	m["sched.score_evals_per_place"] = ratio(before.delta(after, "sched.score_evals"), placed)
	m["sched.agg_refresh_s"] = before.timer(after, "sched.agg_refresh")
	m["sched.agg_splice_frac"] = ratio(before.delta(after, "sched.agg_churn_splice_refreshes"), before.delta(after, "sched.agg_refreshes"))
	m["can.join_s"] = world
	m["proto.join_us"] = world / float64(nodes) * 1e6
	m["exec.rate_refreshes"] = before.delta(after, "exec.rate_refreshes")
	m["sim.events"] = events
	m["sim.ns_per_event"] = ratio(float64(run.total.Nanoseconds()), events)
	m["sim.step_self_s"] = run.self.Seconds()
	for _, k := range protoKinds {
		m["netsim.msgs."+k.String()] = kinds[k]
	}
	m["netsim.kb"] = kb
	m["netsim.ns_per_msg"] = ratio(float64(run.total.Nanoseconds()), msgs)
	m["proto.mean_view"] = meanView
	m["proto.request_frac"] = ratio(kinds[netsim.KindRequest], sent)
	m["proto.broken_missing"] = missing
	m["scenario.load_s"] = get(st, spanLoad).total.Seconds()
	m["trace.overhead_frac"] = wall1/wall0 - 1
	largest, share := "", 0.0
	for _, c := range []string{"can", "geom", "exec", "sched", "resource", "sim", "netsim", "proto", "scenario"} {
		if m["cpu."+c] > share {
			largest, share = c, m["cpu."+c]
		}
	}
	claim("largest module CPU share: %s %.3f, expected proto", largest, share)
	return nil
}
