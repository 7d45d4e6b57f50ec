package main

// Traced maint_sharded: RunScalabilitySharded composed from
// proto.NewShardedSim and NewShardedChurnDriver, driven by RunUntil in
// 10-virtual-second slices with one span per slice, then the entry call
// again at W=1 for the worker speedup.

import (
	"time"

	"hetgrid/internal/experiments"
	"hetgrid/internal/netsim"
	"hetgrid/internal/proto"
	"hetgrid/internal/sim"
)

const (
	spanSetupSlice = "proto.ShardedSim.RunUntil(join storm)"
	spanRunSlice   = "proto.ShardedSim.RunUntil(run)"
	sliceLen       = 10 * sim.Second
)

// protoKinds are the maintenance message kinds reported per kind.
var protoKinds = []netsim.Kind{netsim.KindFull, netsim.KindCompact, netsim.KindRequest, netsim.KindAnnounce}

// maintTrace is what the composed run observed besides its result.
type maintTrace struct {
	events, windows, setupWindows int64
	kinds                         [len(netsim.AllKinds)]netsim.Counters
	total                         netsim.Counters
	meanView                      float64
	missing                       int
}

func traceMaint(seed int64, env *traceEnv) error {
	cfg := maintConfig(seed)
	s := maintShards()
	wall0, err := env.entry(func() (outcome, error) {
		return maintOutcome(cfg, experiments.RunScalabilitySharded(cfg, s, s)), nil
	})
	if err != nil {
		return err
	}

	var (
		res *experiments.ScalabilityResult
		mt  maintTrace
	)
	wall1, err := env.profiled(func() error {
		res, mt = composeMaint(cfg, s, s, env.rec)
		return nil
	})
	if err != nil {
		return err
	}
	env.check("traced composition", maintOutcome(cfg, res))

	t := time.Now()
	res1 := experiments.RunScalabilitySharded(cfg, s, 1)
	wallW1 := time.Since(t).Seconds()
	env.check("entry call at W=1", maintOutcome(cfg, res1))

	st := env.rec.stats()
	setup, run := get(st, spanSetupSlice), get(st, spanRunSlice)
	engine := setup.total + run.total
	msgs := float64(mt.total.MsgsSent)
	m := env.m
	m["can.join_s"] = setup.total.Seconds()
	m["proto.join_us"] = setup.total.Seconds() / float64(cfg.Nodes) * 1e6
	m["sim.events"] = float64(mt.events)
	m["sim.ns_per_event"] = ratio(float64(engine.Nanoseconds()), float64(mt.events))
	m["sim.step_self_s"] = (setup.self + run.self).Seconds()
	m["sim.windows"] = float64(mt.windows)
	m["sim.setup_windows"] = float64(mt.setupWindows)
	m["sim.events_per_window"] = ratio(float64(mt.events), float64(mt.windows))
	m["sim.slice_ms_p50"] = quantile(run.durs, 0.50) * 1e3
	m["sim.slice_ms_p90"] = quantile(run.durs, 0.90) * 1e3
	m["sim.speedup_w"] = wallW1 / wall0
	for _, k := range protoKinds {
		m["netsim.msgs."+k.String()] = float64(mt.kinds[k].MsgsSent)
	}
	m["netsim.kb"] = float64(mt.total.BytesSent) / 1024
	m["netsim.ns_per_msg"] = ratio(float64(engine.Nanoseconds()), msgs)
	m["proto.mean_view"] = mt.meanView
	m["proto.request_frac"] = ratio(float64(mt.kinds[netsim.KindRequest].MsgsSent), msgs)
	m["proto.broken_missing"] = float64(mt.missing)
	m["trace.overhead_frac"] = wall1/wall0 - 1
	claim("cpu.sched + cpu.exec = %.4f, expected ~0", m["cpu.sched"]+m["cpu.exec"])
	claim("W=1 %.3f s, W=%d %.3f s: speedup %.3f", wallW1, s, wall0, wallW1/wall0)
	return nil
}

// composeMaint is RunScalabilitySharded run in slices with a span per
// slice.
func composeMaint(cfg experiments.ScalabilityConfig, shards, workers int, rec *recorder) (*experiments.ScalabilityResult, maintTrace) {
	pcfg := proto.DefaultConfig(cfg.Scheme)
	pcfg.HeartbeatPeriod = cfg.HeartbeatPeriod
	if cfg.MaxPerFace > 0 {
		pcfg.MaxPerFace = cfg.MaxPerFace
	} else if cfg.MaxPerFace < 0 {
		pcfg.MaxPerFace = 0
	}
	pcfg.Seed = cfg.Seed
	ss := proto.NewShardedSim(shards, workers, cfg.Dims, pcfg)
	defer ss.Close()

	cc := proto.DefaultChurnConfig(cfg.Nodes, cfg.MeanEventGap)
	cc.FailFraction = cfg.FailFraction
	cc.Seed = cfg.Seed
	d := proto.NewShardedChurnDriver(ss, cc)
	d.Start()

	var mt maintTrace
	runSlices(ss, d.ChurnStart, spanSetupSlice, rec)
	mt.setupWindows = ss.SE.WindowStats().Windows
	runSlices(ss, d.ChurnStart.Add(cfg.Warmup), spanRunSlice, rec)
	ss.Net.ResetWindow()
	start := ss.SE.Now()
	runSlices(ss, start.Add(cfg.Measure), spanRunSlice, rec)

	mt.events = int64(ss.SE.Stats().Fired)
	mt.windows = ss.SE.WindowStats().Windows
	for _, k := range netsim.AllKinds {
		mt.kinds[k] = ss.Net.KindTotal(k)
	}
	mt.total = ss.Net.Total()
	mt.meanView = ss.MeanViewSize()
	mt.missing, _ = ss.BrokenLinks()
	return summarize(cfg, ss), mt
}

// runSlices advances the simulation to until in sliceLen steps, one
// span per step; each span's count is the events the step fired.
func runSlices(ss *proto.ShardedSim, until sim.Time, name string, rec *recorder) {
	for now := ss.SE.Now(); now < until; now = ss.SE.Now() {
		next := now.Add(sliceLen)
		if next > until {
			next = until
		}
		fired := ss.SE.Stats().Fired
		sp := rec.begin(name, -1)
		ss.RunUntil(next)
		rec.end(sp)
		rec.spans[sp].count = int64(ss.SE.Stats().Fired - fired)
	}
}

// summarize folds the measured window into the Figure 8 rates exactly
// as RunScalabilitySharded does.
func summarize(cfg experiments.ScalabilityConfig, ss *proto.ShardedSim) *experiments.ScalabilityResult {
	minutes := cfg.Measure.Minutes()
	nodes := float64(ss.AliveHosts())
	res := &experiments.ScalabilityResult{Config: cfg, AvgNeighbors: ss.Ov.AvgNeighbors()}
	if nodes > 0 && minutes > 0 {
		w := ss.Net.Window()
		res.MsgsPerNodeMin = float64(w.MsgsSent) / nodes / minutes
		res.KBytesPerNodeMin = float64(w.BytesSent) / 1024 / nodes / minutes
		res.ByKind = make(map[netsim.Kind]experiments.KindRate, len(netsim.AllKinds))
		for _, k := range netsim.AllKinds {
			kw := ss.Net.KindWindow(k)
			res.ByKind[k] = experiments.KindRate{
				MsgsPerNodeMin:   float64(kw.MsgsSent) / nodes / minutes,
				KBytesPerNodeMin: float64(kw.BytesSent) / 1024 / nodes / minutes,
			}
		}
	}
	return res
}
