package main

// The three workloads: their inputs (derived from the seed alone), the
// entry calls users make, the same calls with the timed phase emptied
// (set-up), and the output checks and digests behind `correct`.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hetgrid/internal/experiments"
	"hetgrid/internal/netsim"
	"hetgrid/internal/proto"
	"hetgrid/internal/scenario"
)

// outcome is what one full entry call produced, reduced to what the
// benchmark checks and reports.
type outcome struct {
	Digest     string   `json:"digest"`
	Attempted  int64    `json:"attempted"`   // operations: jobs, or one per maintenance cell
	Failed     int64    `json:"failed"`      // jobs not placed or lost
	Jobs       int64    `json:"jobs"`        // jobs submitted (0 when the workload has none)
	VirtualMin float64  `json:"virtual_min"` // virtual minutes simulated by the run phase
	Problems   []string `json:"problems"`    // output-check failures; empty when correct
}

// benchWorkload is one benchmark workload.
type benchWorkload struct {
	name string
	// setups is how many set-up calls one repetition makes; setup_s is
	// their median across the run.
	setups int
	// setup makes the entry call with the timed phase emptied and
	// returns when the starting population exists.
	setup func(seed int64) error
	// full makes the entry call to completion.
	full func(seed int64) (outcome, error)
	// traced makes the traced run, filling env with the per-layer
	// metrics and the outcomes of every call it checked (see trace.go).
	traced func(seed int64, env *traceEnv) error
}

var workloads = []*benchWorkload{
	{
		name:   "place_static",
		setups: 3,
		setup: func(seed int64) error {
			cfg := placeConfig(seed)
			cfg.Jobs = 0
			_, err := experiments.RunLoadBalance(cfg)
			return err
		},
		full: func(seed int64) (outcome, error) {
			cfg := placeConfig(seed)
			res, err := experiments.RunLoadBalance(cfg)
			if err != nil {
				return outcome{}, err
			}
			return placeOutcome(cfg, res), nil
		},
		traced: tracePlace,
	},
	{
		name:   "maint_sharded",
		setups: 1,
		setup: func(seed int64) error {
			cfg := maintConfig(seed)
			cfg.Warmup, cfg.Measure = 0, 0
			experiments.RunScalabilitySharded(cfg, maintShards(), maintShards())
			return nil
		},
		full: func(seed int64) (outcome, error) {
			cfg := maintConfig(seed)
			return maintOutcome(cfg, experiments.RunScalabilitySharded(cfg, maintShards(), maintShards())), nil
		},
		traced: traceMaint,
	},
	{
		name:   "churn_repair",
		setups: 3,
		setup:  churnSetup,
		full: func(seed int64) (outcome, error) {
			return churnRun(seed, nil, nil)
		},
		traced: traceChurn,
	},
}

func findWorkload(name string) *benchWorkload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// placeConfig is the hetgridsim default run at the workload seed.
func placeConfig(seed int64) experiments.LBConfig {
	cfg := experiments.DefaultLBConfig(experiments.CanHet)
	cfg.Seed = seed
	return cfg
}

func placeOutcome(cfg experiments.LBConfig, res *experiments.LBResult) outcome {
	o := outcome{
		Digest:     placeDigest(res),
		Attempted:  int64(cfg.Jobs),
		Failed:     int64(res.Failed),
		Jobs:       int64(cfg.Jobs),
		VirtualMin: res.Makespan.Minutes(),
	}
	if res.Placed+res.Failed != cfg.Jobs {
		o.problem("placed %d + failed %d != jobs %d", res.Placed, res.Failed, cfg.Jobs)
	}
	if res.WaitTimes.N() != res.Placed {
		o.problem("%d jobs placed but %d finished", res.Placed, res.WaitTimes.N())
	}
	if res.Makespan <= 0 {
		o.problem("makespan %v not positive", res.Makespan)
	}
	return o
}

// placeDigest hashes every output field of a load-balance result,
// every wait time included, in a fixed order.
func placeDigest(res *experiments.LBResult) string {
	var h digest
	h.add("placed", float64(res.Placed))
	h.add("failed", float64(res.Failed))
	h.add("makespan", float64(res.Makespan))
	s := res.Sched
	for _, v := range []int{s.Placed, s.RouteHops, s.PushHops, s.FreePicks, s.AcceptPicks, s.ScorePicks, s.Unmatchable, s.BoostedWalks, s.Fallbacks} {
		h.add("sched", float64(v))
	}
	h.add("gini", res.Imbalance.Gini)
	h.add("cv", res.Imbalance.CV)
	h.add("maxovermean", res.Imbalance.MaxOverMean)
	for _, w := range res.WaitTimes.Observations() {
		h.add("wait", w)
	}
	return h.sum()
}

// Maintenance workload: one adaptive Figure-8 cell. 2000 nodes keeps a
// repetition near 5 s on two cores while the join storm still costs
// about 40% of the steady state.
const (
	maintNodes = 2000
	maintDims  = 5
)

func maintConfig(seed int64) experiments.ScalabilityConfig {
	cfg := experiments.DefaultScalabilityConfig(proto.Adaptive, maintDims, maintNodes)
	cfg.Seed = seed
	return cfg
}

// maintShards is S = W = GOMAXPROCS, the parallelism users get by
// default. The result does not depend on it (the sharded core's
// determinism contract); only the wall time does.
func maintShards() int { return gomaxprocs() }

func maintOutcome(cfg experiments.ScalabilityConfig, res *experiments.ScalabilityResult) outcome {
	o := outcome{
		Digest:     maintDigest(res),
		Attempted:  1,
		VirtualMin: (cfg.Warmup + cfg.Measure).Minutes(),
	}
	for name, v := range map[string]float64{
		"msgs/node/min": res.MsgsPerNodeMin,
		"KB/node/min":   res.KBytesPerNodeMin,
		"avg neighbors": res.AvgNeighbors,
	} {
		if !(v > 0) || math.IsInf(v, 0) {
			o.problem("%s = %v, want finite and positive", name, v)
		}
	}
	for _, k := range netsim.AllKinds {
		r := res.ByKind[k]
		if math.IsNaN(r.MsgsPerNodeMin+r.KBytesPerNodeMin) || math.IsInf(r.MsgsPerNodeMin+r.KBytesPerNodeMin, 0) || r.MsgsPerNodeMin < 0 {
			o.problem("kind %s rate %v not finite", k, r)
		}
	}
	return o
}

func maintDigest(res *experiments.ScalabilityResult) string {
	var h digest
	h.add("msgs", res.MsgsPerNodeMin)
	h.add("kb", res.KBytesPerNodeMin)
	h.add("neighbors", res.AvgNeighbors)
	for _, k := range netsim.AllKinds {
		h.add(k.String()+".msgs", res.ByKind[k].MsgsPerNodeMin)
		h.add(k.String()+".kb", res.ByKind[k].KBytesPerNodeMin)
	}
	return h.sum()
}

// Fault-scenario corpus: churnScenarios generated specs run one after
// another, as `hetgridsim run a.yaml b.yaml ...` runs a corpus. One
// scenario's cost varies by about 16% from seed to seed, so a run sums
// eight short scenarios rather than one long one; the corpus total then
// varies by about 4%. The fixed part follows the scenario schema; the
// seed picks each scenario's seed and which racks fail and partition.
// The constraint ratio is 0.1 rather than the evaluation's 0.8: the
// fleet is small and loses nodes, and at 0.3 three of 240 generated
// scenarios had a job no live node could satisfy (none at 0.1), which
// counts as a failed operation; the benchmark wants workloads on which
// none fails.
const (
	churnScenarios = 8
	churnNodes     = 150
	churnRacks     = 8
	churnJobs      = 450
)

// churnCorpus generates the corpus for one workload seed.
func churnCorpus(seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	specs := make([]string, churnScenarios)
	for i := range specs {
		failRack := r.Intn(churnRacks)
		partRack := (failRack + 1 + r.Intn(churnRacks-1)) % churnRacks
		specs[i] = churnSpec(r.Int63(), failRack, partRack)
	}
	return specs
}

func churnSpec(seed int64, failRack, partRack int) string {
	return fmt.Sprintf(`name: churn_repair
seed: %d
duration: 20m

grid:
  nodes: %d
  racks: %d
  gpu_slots: 2
  protocol: adaptive
  heartbeat: 60s
  scheduler: can-het

workload:
  jobs: %d
  mean_gap: 2s
  gpu_fraction: 0.3
  constraint_ratio: 0.1
  min_run: 3m
  max_run: 10m

events:
  - at: 2m
    churn: {mean_gap: 6s, fail_fraction: 0.5, until: 16m}
  - at: 6m
    join_wave: {nodes: %d, gap: 1s}
  - at: 10m
    fail_rack: %d
  - at: 13m
    partition: {rack: %d}
  - at: 16m
    heal: all

assert:
  jobs_accounted: true
  zone_cover: true
  no_orphans: true
`, seed, churnNodes, churnRacks, churnJobs, churnNodes*4/15, failRack, partRack)
}

// churnSetup builds every scenario's starting population.
func churnSetup(seed int64) error {
	for _, src := range churnCorpus(seed) {
		spec, err := scenario.Load(src)
		if err != nil {
			return err
		}
		if _, err := scenario.NewWorld(spec); err != nil {
			return err
		}
	}
	return nil
}

// churnRun runs the corpus the way `hetgridsim run` does, keeping no
// result past its scenario. around, when non-nil, wraps each Load and
// RunSampled call (the traced run's spans); each, when non-nil, sees
// every scenario's result.
func churnRun(seed int64, around func(name string, call func() error) error, each func(*scenario.Result)) (outcome, error) {
	if around == nil {
		around = func(_ string, call func() error) error { return call() }
	}
	var (
		o       outcome
		reports []byte
	)
	for i, src := range churnCorpus(seed) {
		var (
			spec *scenario.Spec
			res  *scenario.Result
		)
		err := around(spanLoad, func() (err error) {
			spec, err = scenario.Load(src)
			return err
		})
		if err != nil {
			return outcome{}, err
		}
		err = around(spanRun, func() (err error) {
			res, err = scenario.RunSampled(spec, 0)
			return err
		})
		if err != nil {
			return outcome{}, err
		}
		if each != nil {
			each(res)
		}
		reports = append(reports, res.Report...)

		m := res.Metrics
		jobs := spec.Workload.Jobs
		o.Attempted += int64(jobs)
		o.Failed += int64(m["place_failed"] + m["lost"])
		o.Jobs += int64(jobs)
		o.VirtualMin += spec.Duration.Minutes()
		for _, v := range res.Violations {
			o.problem("scenario %d assertion: %s", i, v)
		}
		if int(m["placed"]+m["place_failed"]) != jobs {
			o.problem("scenario %d: placed %v + failed %v != jobs %d", i, m["placed"], m["place_failed"], jobs)
		}
	}
	o.Digest = reportDigest(string(reports))
	return o, nil
}

func reportDigest(report string) string {
	sum := sha256.Sum256([]byte(report))
	return hex.EncodeToString(sum[:8])
}

func (o *outcome) problem(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// digest hashes labeled float64 values by their exact bits.
type digest struct{ b []byte }

func (d *digest) add(label string, v float64) {
	d.b = fmt.Appendf(d.b, "%s=%016x\n", label, math.Float64bits(v))
}

func (d *digest) sum() string { return reportDigest(string(d.b)) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank quantile of xs (p in [0, 1]).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
