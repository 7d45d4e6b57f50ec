package main

// Traced place_static: RunLoadBalance composed from the sim, can,
// exec, sched and workload constructors, with spans around
// Overlay.Join, JobGen.Next, Scheduler.Place, Cluster.Submit and
// Engine.Step.

import (
	"fmt"

	"hetgrid/internal/can"
	"hetgrid/internal/exec"
	"hetgrid/internal/experiments"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/sched"
	"hetgrid/internal/sim"
	"hetgrid/internal/stats"
	"hetgrid/internal/workload"
)

const (
	spanJoin   = "can.Overlay.Join"
	spanNext   = "workload.JobGen.Next"
	spanPlace  = "sched.Scheduler.Place"
	spanSubmit = "exec.Cluster.Submit"
	spanStep   = "sim.Engine.Step"
)

func tracePlace(seed int64, env *traceEnv) error {
	cfg := placeConfig(seed)
	wall0, err := env.entry(func() (outcome, error) {
		res, err := experiments.RunLoadBalance(cfg)
		if err != nil {
			return outcome{}, err
		}
		return placeOutcome(cfg, res), nil
	})
	if err != nil {
		return err
	}

	var (
		res    *experiments.LBResult
		events uint64
	)
	before := snapPerf()
	wall1, err := env.profiled(func() error {
		var err error
		res, events, err = composePlace(cfg, env.rec)
		return err
	})
	if err != nil {
		return err
	}
	after := snapPerf()
	env.check("traced composition", placeOutcome(cfg, res))

	st := env.rec.stats()
	place, step := get(st, spanPlace), get(st, spanStep)
	m := env.m
	m["sched.place_s"] = place.total.Seconds()
	m["sched.place_us_p50"] = quantile(place.durs, 0.50) * 1e6
	m["sched.place_us_p99"] = quantile(place.durs, 0.99) * 1e6
	m["sched.hops_per_place"] = ratio(float64(res.Sched.RouteHops+res.Sched.PushHops), float64(place.n))
	m["sched.score_evals_per_place"] = ratio(before.delta(after, "sched.score_evals"), float64(place.n))
	m["sched.agg_refresh_s"] = before.timer(after, "sched.agg_refresh")
	m["sched.agg_splice_frac"] = ratio(before.delta(after, "sched.agg_churn_splice_refreshes"), before.delta(after, "sched.agg_refreshes"))
	m["can.join_s"] = get(st, spanJoin).total.Seconds()
	m["exec.submit_s"] = get(st, spanSubmit).total.Seconds()
	m["exec.rate_refreshes"] = before.delta(after, "exec.rate_refreshes")
	m["workload.next_s"] = get(st, spanNext).total.Seconds()
	m["sim.events"] = float64(events)
	m["sim.ns_per_event"] = ratio(float64(step.total.Nanoseconds()), float64(events))
	m["sim.step_self_s"] = step.self.Seconds()
	m["trace.overhead_frac"] = wall1/wall0 - 1
	claim("sched.place_s / run phase (Engine.Step) = %.3f, expected >= 0.8", ratio(place.total.Seconds(), step.total.Seconds()))
	return nil
}

// composePlace is RunLoadBalance with the benchmark's spans around each
// module call. It returns the result and the number of events fired.
func composePlace(cfg experiments.LBConfig, rec *recorder) (*experiments.LBResult, uint64, error) {
	eng := sim.New()
	space := resource.NewSpace(cfg.GPUSlots)
	ov := can.NewOverlay(space.Dims())
	cluster := exec.NewCluster(eng, exec.Config{Gamma: cfg.Gamma})

	ngen := workload.NewNodeGen(space, rng.Split(cfg.Seed, "nodes"))
	ngen.ConcurrentGPUs = cfg.ConcurrentGPUs
	redraw := rng.NewSplit(cfg.Seed, "virtual-redraw")
	for i := 0; i < cfg.Nodes; i++ {
		caps := ngen.One()
		var node *can.Node
		var err error
		for try := 0; ; try++ {
			sp := rec.begin(spanJoin, -1)
			node, err = ov.Join(space.NodePoint(caps), caps)
			rec.end(sp)
			if err == nil {
				break
			}
			if try >= 8 {
				return nil, 0, fmt.Errorf("join node %d: %w", i, err)
			}
			caps.Virtual = redraw.Float64() * 0.999999
		}
		cluster.AddNode(node.ID, caps)
	}

	ctx := sched.NewContext(eng, ov, cluster, space, cfg.Seed)
	ctx.StoppingFactor = cfg.StoppingFactor
	ctx.RefreshPeriod = cfg.RefreshPeriod
	ctx.DisableVirtualSpread = cfg.DisableVirtualSpread
	var (
		scheduler sched.Scheduler
		schedStat *sched.Stats
	)
	switch cfg.Scheme {
	case experiments.CanHet:
		s := sched.NewCanHet(ctx)
		scheduler, schedStat = s, &s.Stats
	case experiments.CanHom:
		s := sched.NewCanHom(ctx)
		scheduler, schedStat = s, &s.Stats
	case experiments.Central:
		s := sched.NewCentral(ctx)
		scheduler, schedStat = s, &s.Stats
	default:
		return nil, 0, fmt.Errorf("unknown scheme %q", cfg.Scheme)
	}

	jgen := workload.NewJobGen(space, rng.Split(cfg.Seed, "jobs"))
	jgen.ConstraintRatio = cfg.ConstraintRatio
	jgen.MeanInterArrival = cfg.MeanInterArrival
	jgen.GPUJobFraction = cfg.GPUJobFraction

	res := &experiments.LBResult{Config: cfg, WaitTimes: &stats.Sample{}}
	remaining := cfg.Jobs
	var arrive func(now sim.Time)
	arrive = func(now sim.Time) {
		if remaining == 0 {
			return
		}
		remaining--
		sp := rec.begin(spanNext, -1)
		j, gap := jgen.Next()
		rec.end(sp)
		rec.spans[sp].job = int64(j.ID)
		j.Submitted = now
		sp = rec.begin(spanPlace, int64(j.ID))
		node, err := scheduler.Place(j)
		rec.end(sp)
		if err != nil {
			res.Failed++
		} else {
			sp = rec.begin(spanSubmit, int64(j.ID))
			err = cluster.Submit(j, node)
			rec.end(sp)
			if err != nil {
				res.Failed++
			} else {
				res.Placed++
			}
		}
		if remaining > 0 {
			eng.After(gap, arrive)
		}
	}
	var lastFinish sim.Time
	cluster.OnFinish = func(j *exec.Job) {
		res.WaitTimes.Add(j.WaitTime().Seconds())
		lastFinish = eng.Now()
	}
	eng.At(0, arrive)
	for {
		sp := rec.begin(spanStep, -1)
		ok := eng.Step()
		rec.end(sp)
		if !ok {
			break
		}
	}

	res.Makespan = sim.Duration(lastFinish)
	var work []float64
	for _, n := range ov.Nodes() {
		if rt := cluster.Runtime(n.ID); rt != nil {
			work = append(work, rt.BusyCoreSeconds())
		}
	}
	res.Imbalance = experiments.Imbalance{
		Gini:        stats.Gini(work),
		CV:          stats.CoefficientOfVariation(work),
		MaxOverMean: stats.MaxOverMean(work),
	}
	res.Sched = *schedStat
	return res, eng.Stats().Fired, nil
}
