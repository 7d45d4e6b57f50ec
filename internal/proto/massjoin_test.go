package proto

import (
	"strings"
	"testing"

	"hetgrid/internal/geom"
	"hetgrid/internal/rng"
	"hetgrid/internal/sim"
)

// massJoinReport grows an overlay by n direct admissions (no churn
// driver) and returns the full battery report.
// Mass join is the densest source of same-instant cross-row mail: every
// completion fans intro messages out *on behalf of the splitting owner*
// through the newcomer's shard facet, so equal-(at,key) entries land in
// different mailbox rows depending on the partition.
func massJoinReport(t *testing.T, shards, workers, n int, horizon sim.Time) string {
	t.Helper()
	cfg := DefaultConfig(Compact)
	cfg.HeartbeatPeriod = 10 * sim.Second
	cfg.Seed = 1
	ss := NewShardedSim(shards, workers, 3, cfg)
	defer ss.Close()
	pts := rng.NewSplit(1, "massjoin")
	for i := 0; i < n; i++ {
		p := geom.Point{pts.Float64(), pts.Float64(), pts.Float64()}
		if _, err := ss.JoinNode(p, nil); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	ss.RunUntil(horizon)
	d := &ChurnDriver{}
	return shardedBatteryReport(ss, ss.Net.Total(), ss.Net.Window(), ss.Net.KindTotal, d, nil)
}

// TestMassJoinShardInvariance pins the serial-phase emission-order
// contract (sim.ShardedEngine's sub key, DESIGN.md §14): posts made
// from serial context must flush in emission order — the serial
// engine's same-instant seq tie-break — not in source-row order, which
// is partition-dependent. Before the fix, S=4 diverged from S=1 at the
// first join fan-out delivery instant (t = latency).
func TestMassJoinShardInvariance(t *testing.T) {
	want := massJoinReport(t, 1, 1, 60, 60*sim.Time(sim.Second))
	for _, c := range [][2]int{{4, 1}, {4, 2}} {
		got := massJoinReport(t, c[0], c[1], 60, 60*sim.Time(sim.Second))
		if got != want {
			wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
			for i := range wl {
				if i >= len(gl) || wl[i] != gl[i] {
					t.Fatalf("S=%d W=%d diverged at line %d:\nS=1: %s\nS=%d: %s", c[0], c[1], i, wl[i], c[0], gl[i])
				}
			}
			t.Fatalf("S=%d W=%d diverged (length)", c[0], c[1])
		}
	}
}
