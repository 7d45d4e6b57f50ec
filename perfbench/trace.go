package main

// The traced run. Each workload makes its untraced entry call once,
// then runs again with spans around every call the benchmark makes
// into a module and a CPU profile around the whole traced call, and
// reports per-layer metrics. Where the entry call hides the module
// calls (RunLoadBalance, RunScalabilitySharded) the traced run is
// composed from the module constructors exactly as the entry call
// composes them; the digest check proves the two produce the same
// result. Layers a workload does not exercise report 0.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"hetgrid/internal/perf"
)

// layerMetrics lists every per-layer metric with its unit, in report
// order.
var layerMetrics = []struct{ name, unit string }{
	{"sched.place_s", "s"},
	{"sched.place_us_p50", "us"},
	{"sched.place_us_p99", "us"},
	{"sched.hops_per_place", "count"},
	{"sched.score_evals_per_place", "count"},
	{"sched.agg_refresh_s", "s"},
	{"sched.agg_splice_frac", "frac"},
	{"can.join_s", "s"},
	{"exec.submit_s", "s"},
	{"exec.rate_refreshes", "count"},
	{"workload.next_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.step_self_s", "s"},
	{"sim.windows", "count"},
	{"sim.setup_windows", "count"},
	{"sim.events_per_window", "count"},
	{"sim.slice_ms_p50", "ms"},
	{"sim.slice_ms_p90", "ms"},
	{"sim.speedup_w", "x"},
	{"netsim.msgs.full", "count"},
	{"netsim.msgs.compact", "count"},
	{"netsim.msgs.request", "count"},
	{"netsim.msgs.announce", "count"},
	{"netsim.kb", "KB"},
	{"netsim.ns_per_msg", "ns"},
	{"proto.join_us", "us"},
	{"proto.mean_view", "count"},
	{"proto.request_frac", "frac"},
	{"proto.broken_missing", "count"},
	{"scenario.load_s", "s"},
	{"go.alloc_mb", "MB"},
	{"go.allocs", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_s", "s"},
	{"go.idle_cpu_s", "s"},
	{"trace.overhead_frac", "frac"},
	{"env.procs", "count"},
	{"env.gomaxprocs", "count"},
}

func init() {
	for _, c := range cpuClasses {
		layerMetrics = append(layerMetrics, struct{ name, unit string }{"cpu." + c, "frac"})
	}
}

// traceEnv carries one traced run's recorder, metrics and checks.
type traceEnv struct {
	workload  string
	seed      int64
	rec       *recorder
	m         map[string]float64
	digest    string // the untraced entry call's digest every other call must match
	problems  []string
	attempted int64
	failed    int64
}

func runTraced(w *benchWorkload, seed int64) (result, error) {
	env := &traceEnv{workload: w.name, seed: seed, rec: newRecorder(), m: map[string]float64{}}
	perf.SetEnabled(true) // the program's own timers (sched.agg_refresh)
	if err := w.traced(seed, env); err != nil {
		return result{}, err
	}
	env.m["env.procs"] = float64(runtime.NumCPU())
	env.m["env.gomaxprocs"] = float64(gomaxprocs())
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := env.rec.write(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans %d written to %s\n", len(env.rec.spans), path)
	reportProblems(env.problems)
	res := result{
		Correct:   len(env.problems) == 0,
		Attempted: env.attempted,
		Failed:    env.failed,
		Metrics:   map[string]metric{},
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{env.m[lm.name], lm.unit}
	}
	return res, nil
}

// entry makes the untraced entry call twice. The first call, in the
// fresh process as a user's run is, gives the Go runtime's allocation
// and GC figures and fixes the digest every later call must reproduce.
// The second, warm like the traced call after it, gives the wall
// seconds the tracing overhead is measured against.
func (env *traceEnv) entry(call func() (outcome, error)) (float64, error) {
	before := readRuntime()
	o, err := call()
	if err != nil {
		return 0, err
	}
	after := readRuntime()
	env.m["go.alloc_mb"] = (after.allocBytes - before.allocBytes) / (1 << 20)
	env.m["go.allocs"] = after.allocObjects - before.allocObjects
	env.m["go.gc_cycles"] = after.gcCycles - before.gcCycles
	env.m["go.gc_cpu_s"] = after.gcCPU - before.gcCPU
	env.m["go.idle_cpu_s"] = after.idleCPU - before.idleCPU
	env.digest = canonicalDigest(env.workload, env.seed)
	if env.digest == "" {
		env.digest = o.Digest
	}
	env.check("untraced entry call", o)

	t := time.Now()
	o, err = call()
	wall := time.Since(t).Seconds()
	if err != nil {
		return 0, err
	}
	env.check("second untraced entry call", o)
	return wall, nil
}

// check folds one call's outcome into the run's checks.
func (env *traceEnv) check(label string, o outcome) {
	bad := o.Problems
	if o.Digest != env.digest {
		bad = append(bad, fmt.Sprintf("digest %s, want %s", o.Digest, env.digest))
	}
	for _, p := range bad {
		env.problems = append(env.problems, label+": "+p)
	}
	env.attempted += o.Attempted
	env.failed += o.Failed
}

// profiled runs call under a CPU profile and folds the profile into
// the cpu.* shares. It returns the call's wall seconds.
func (env *traceEnv) profiled(call func() error) (float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return 0, fmt.Errorf("start CPU profile: %w", err)
	}
	t := time.Now()
	err := call()
	wall := time.Since(t).Seconds()
	pprof.StopCPUProfile()
	if err != nil {
		return 0, err
	}
	samples, perr := decodeProfile(buf.Bytes())
	if perr != nil {
		return 0, perr
	}
	shares, total := foldShares(samples)
	for _, c := range cpuClasses {
		env.m["cpu."+c] = shares[c]
	}
	fmt.Printf("cpu profile: %d samples, unattributed share %.3f\n", total, shares["other"])
	return wall, nil
}

// claim prints one check of what the workload is meant to stress.
func claim(format string, args ...any) {
	fmt.Printf("claim: "+format+"\n", args...)
}

type runtimeFigures struct {
	allocBytes, allocObjects, gcCycles, gcCPU, idleCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeFigures {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeFigures{v(0), v(1), v(2), v(3), v(4)}
}

// perfSnap is a snapshot of the program's perf registry; delta returns
// a counter's growth between two snapshots, and timer a timer's
// accumulated time.
type perfSnap map[string]perf.Stat

func snapPerf() perfSnap {
	m := perfSnap{}
	for _, s := range perf.Snapshot() {
		m[s.Name] = s
	}
	return m
}

func (a perfSnap) delta(b perfSnap, name string) float64 {
	return float64(b[name].Count - a[name].Count)
}

func (a perfSnap) timer(b perfSnap, name string) float64 {
	return (b[name].Total - a[name].Total).Seconds()
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
