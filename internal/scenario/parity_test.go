package scenario

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"

	"hetgrid/internal/sim"
)

// parityInterval keeps the exported stream dense enough to catch
// sampling divergence (dormancy bugs truncate streams, not reports).
const parityInterval = 30 * sim.Second

func runCorpusWith(t *testing.T, path, engine string, shards, workers int) (report, stream string) {
	t.Helper()
	spec, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return runSpecWith(t, spec, engine, shards, workers)
}

// runSpecWith runs spec on the given engine at parityInterval and
// returns its report and telemetry stream.
func runSpecWith(t *testing.T, spec *Spec, engine string, shards, workers int) (report, stream string) {
	t.Helper()
	spec.Engine = engine
	spec.Shards = shards
	spec.Workers = workers
	res, err := RunSampled(spec, parityInterval)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Telemetry.WriteJSONL(&buf, spec.Name); err != nil {
		t.Fatal(err)
	}
	return res.Report, buf.String()
}

// TestCorpusEngineParity holds every shipped scenario's report AND
// sampled telemetry stream byte-identical between the serial engine and
// `engine: sharded` at (S, W) ∈ {(1,1), (4,1), (4, max)}. Parity rests
// on the mailbox emission-order contract (sim.ShardedEngine's sub key,
// DESIGN.md §14); S=1 vs S=4 additionally exercises cross-row gather
// and window placement. It holds for this corpus, not for every spec:
// no corpus scenario runs `protocol: adaptive`, and under adaptive
// churn the engines order a control-plane event and a same-instant
// heartbeat tick differently (TestAdaptiveChurnShardInvariance).
func TestCorpusEngineParity(t *testing.T) {
	if testing.Short() {
		t.Skip("parity runs the corpus four times per scenario")
	}
	paths, err := filepath.Glob("../../examples/scenarios/*.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 6 {
		t.Fatalf("found %d corpus scenarios, want at least 6", len(paths))
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			wantReport, wantStream := runCorpusWith(t, path, "serial", 0, 0)
			combos := [][2]int{{1, 1}, {4, 1}, {4, runtime.GOMAXPROCS(0)}}
			for _, c := range combos {
				gotReport, gotStream := runCorpusWith(t, path, "sharded", c[0], c[1])
				if gotReport != wantReport {
					t.Fatalf("S=%d W=%d report diverged from serial:\n--- serial\n%s\n--- sharded\n%s",
						c[0], c[1], wantReport, gotReport)
				}
				if gotStream != wantStream {
					t.Fatalf("S=%d W=%d telemetry stream diverged from serial (reports identical)", c[0], c[1])
				}
			}
		})
	}
}

// adaptiveChurnSpec is the smallest known spec on which the sharded
// core's output differs from the serial engine's: a leave handoff's
// takeover (a control-plane event) lands on the same millisecond as a
// heartbeat tick. The sharded core fires the control-plane event first
// (its global-first tie rule); the serial engine fires the earlier-
// scheduled tick first, so the announce and the compact/request reach
// their shared destination in the opposite order. At the 16m
// churn_stop line the serial engine reports mean_view=22.03 and the
// sharded core 21.99.
const adaptiveChurnSpec = `name: adaptive_churn
seed: 1
duration: 20m
grid: {nodes: 150, protocol: adaptive, heartbeat: 60s}
events:
  - at: 2m
    churn: {mean_gap: 6s, fail_fraction: 0, until: 16m}
`

// TestAdaptiveChurnShardInvariance pins the sharded core's own contract
// on adaptiveChurnSpec: its report and telemetry stream are identical
// for every shard and worker count, though they differ from the serial
// engine's.
func TestAdaptiveChurnShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 150-node scenario four times")
	}
	wantReport, wantStream := runSpecWith(t, mustLoad(t, adaptiveChurnSpec), "sharded", 1, 1)
	for _, c := range [][2]int{{2, 1}, {4, 1}, {4, runtime.GOMAXPROCS(0)}} {
		gotReport, gotStream := runSpecWith(t, mustLoad(t, adaptiveChurnSpec), "sharded", c[0], c[1])
		if gotReport != wantReport {
			t.Fatalf("S=%d W=%d report diverged from S=1 W=1:\n--- S=1 W=1\n%s\n--- S=%d W=%d\n%s",
				c[0], c[1], wantReport, c[0], c[1], gotReport)
		}
		if gotStream != wantStream {
			t.Fatalf("S=%d W=%d telemetry stream diverged from S=1 W=1 (reports identical)", c[0], c[1])
		}
	}
}
