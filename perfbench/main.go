// Command perfbench is hetgrid's end-to-end benchmark. It runs one
// workload through the entry points users call, checks the outputs and
// prints the metrics as one JSON object on the last line of stdout:
//
//	perfbench --workload place_static --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it repeats the workload, each repetition in a fresh
// child process, for --seconds and reports end-to-end medians. With
// --trace 1 it makes the untraced entry call, then a traced run with
// spans around the calls into each module, and reports per-layer
// metrics. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// repetition is one child process's report.
type repetition struct {
	Setup   []float64 `json:"setup_s"`
	Wall    float64   `json:"wall_s"`
	CPU     float64   `json:"cpu_s"`
	PeakRSS float64   `json:"peak_rss_mb"`
	Outcome outcome   `json:"outcome"`
}

func main() {
	os.Exit(run())
}

func run() int {
	wname := flag.String("workload", "", "workload name: place_static, maint_sharded or churn_repair")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := flag.Int("seconds", 20, "how long the end-to-end run repeats the workload")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	child := flag.Bool("child", false, "run one repetition and print it as JSON (used by the parent run)")
	flag.Parse()

	w := findWorkload(*wname)
	if w == nil || (*trace != 0 && *trace != 1) || *secs < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <n> --trace <0|1>\n")
		return 2
	}
	if *child {
		return runChild(w, *seed)
	}
	printEnv()
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = runTraced(w, *seed)
	} else {
		res, err = runEndToEnd(w, *seed, time.Duration(*secs)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printTable(w.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runChild makes the full entry call, then the set-up calls, and prints
// one repetition. The full call runs first so it pays a fresh process's
// costs, as a user's run does.
func runChild(w *benchWorkload, seed int64) int {
	var rep repetition
	cpu0 := cpuSeconds()
	t0 := time.Now()
	o, err := w.full(seed)
	rep.Wall = time.Since(t0).Seconds()
	rep.CPU = cpuSeconds() - cpu0
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.Outcome = o
	for i := 0; i < w.setups; i++ {
		t := time.Now()
		if err := w.setup(seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
		rep.Setup = append(rep.Setup, time.Since(t).Seconds())
	}
	rep.PeakRSS = peakRSSMB()
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// minReps is the fewest repetitions an end-to-end run makes, however
// short --seconds is.
const minReps = 3

// runEndToEnd repeats the workload in child processes until the budget
// is spent and reports the medians.
func runEndToEnd(w *benchWorkload, seed int64, budget time.Duration) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, fmt.Errorf("locate own binary: %w", err)
	}
	start := time.Now()
	var reps []repetition
	for len(reps) < minReps || time.Since(start) < budget {
		rep, err := spawn(self, w.name, seed)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, rep)
	}

	res := result{Metrics: map[string]metric{}}
	var setups, walls, rates, jobRates, cpus, rss []float64
	var problems []string
	want := canonicalDigest(w.name, seed)
	for i, rep := range reps {
		o := rep.Outcome
		setup := median(rep.Setup)
		run := rep.Wall - setup
		setups = append(setups, rep.Setup...)
		walls = append(walls, rep.Wall)
		rates = append(rates, o.VirtualMin/run)
		jobRates = append(jobRates, float64(o.Jobs)/run)
		cpus = append(cpus, rep.CPU)
		rss = append(rss, rep.PeakRSS)
		bad := o.Problems
		if want == "" {
			want = o.Digest
		}
		if o.Digest != want {
			bad = append(bad, fmt.Sprintf("digest %s, want %s", o.Digest, want))
		}
		for _, p := range bad {
			problems = append(problems, fmt.Sprintf("repetition %d: %s", i, p))
		}
		res.Attempted += o.Attempted
		if len(bad) > 0 {
			res.Failed += o.Attempted
		} else {
			res.Failed += o.Failed
		}
	}
	reportProblems(problems)
	res.Correct = len(problems) == 0
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["wall_s"] = metric{median(walls), "s"}
	res.Metrics["sim_min_per_s"] = metric{median(rates), "min/s"}
	res.Metrics["cpu_s"] = metric{median(cpus), "s"}
	res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
	fmt.Printf("repetitions %d, set-up samples %d, digest %s\n", len(reps), len(setups), want)
	if reps[0].Outcome.Jobs > 0 {
		fmt.Printf("%-14s %-14s %12.4f %s\n", w.name, "jobs_per_s", median(jobRates), "1/s")
	}
	fmt.Printf("%-14s %-14s %12.6f %s\n", w.name, "failed_frac", float64(res.Failed)/float64(res.Attempted), "frac")
	return res, nil
}

// spawn runs one repetition in a fresh child process and waits for it.
func spawn(self, wname string, seed int64) (repetition, error) {
	var out bytes.Buffer
	cmd := exec.Command(self, "-child", "-workload", wname, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return repetition{}, fmt.Errorf("repetition of %s: %w", wname, err)
	}
	var rep repetition
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return repetition{}, fmt.Errorf("repetition of %s: decode %q: %w", wname, out.String(), err)
	}
	if len(rep.Setup) == 0 || rep.Wall <= 0 {
		return repetition{}, fmt.Errorf("repetition of %s: empty report", wname)
	}
	return rep, nil
}

func reportProblems(problems []string) {
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
}

// printTable prints every metric by name and unit, one per line.
func printTable(wname string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-14s %-26s %14.6g %s\n", wname, n, m.Value, m.Unit)
	}
	fmt.Printf("%-14s correct=%v attempted=%d failed=%d\n", wname, res.Correct, res.Attempted, res.Failed)
}

// printEnv records what the figures were measured on, so comparisons
// stay like with like.
func printEnv() {
	fmt.Printf("env procs=%d gomaxprocs=%d go=%s cpu=%q\n", runtime.NumCPU(), gomaxprocs(), runtime.Version(), cpuModel())
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && string(bytes.TrimSpace(k)) == "model name" {
			return string(bytes.TrimSpace(v))
		}
	}
	return "unknown"
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is this process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
