package proto

import (
	"testing"

	canpkg "hetgrid/internal/can"
	"hetgrid/internal/geom"
	"hetgrid/internal/sim"
)

func zone2(lox, loy, hix, hiy float64) geom.Zone {
	return geom.Zone{Lo: geom.Point{lox, loy}, Hi: geom.Point{hix, hiy}}
}

func TestViewDirectAddsAndRefreshes(t *testing.T) {
	v := newView()
	r := Record{ID: 1, Zone: zone2(0, 0, 0.5, 1)}
	v.direct(r, 100)
	if !v.has(1) {
		t.Fatal("direct record not added")
	}
	if v.get(1).lastHeard != 100 {
		t.Fatal("lastHeard not set")
	}
	r.Zone = zone2(0, 0, 0.25, 1)
	v.direct(r, 200)
	if z, _ := v.zoneOf(1); !z.Equal(r.Zone) {
		t.Fatal("direct update did not refresh zone")
	}
	if v.get(1).lastHeard != 200 {
		t.Fatal("lastHeard not refreshed")
	}
}

func TestViewIndirectDoesNotRefreshLiveness(t *testing.T) {
	v := newView()
	r := Record{ID: 1, Zone: zone2(0, 0, 0.5, 1)}
	v.direct(r, 100)
	v.indirect(Record{ID: 1, Zone: zone2(0, 0, 0.4, 1)}, 500, 450)
	if v.get(1).lastHeard != 100 {
		t.Fatal("indirect evidence must not refresh lastHeard")
	}
	if z, _ := v.zoneOf(1); z.Hi[0] != 0.4 {
		t.Fatal("indirect evidence must update the zone")
	}
}

func TestViewIndirectAddsWithGraceTime(t *testing.T) {
	v := newView()
	v.indirect(Record{ID: 2, Zone: zone2(0.5, 0, 1, 1)}, 500, 450)
	if !v.has(2) {
		t.Fatal("indirect record not added")
	}
	if v.get(2).lastHeard != 450 {
		t.Fatalf("grace lastHeard = %d, want 450", v.get(2).lastHeard)
	}
}

func TestViewTombstoneBlocksIndirectResurrection(t *testing.T) {
	v := newView()
	v.direct(Record{ID: 3, Zone: zone2(0, 0, 1, 0.5)}, 100)
	v.bury(3, 1000)
	if v.has(3) {
		t.Fatal("bury did not remove the entry")
	}
	v.indirect(Record{ID: 3, Zone: zone2(0, 0, 1, 0.5)}, 500, 400)
	if v.has(3) {
		t.Fatal("tombstoned node resurrected by indirect evidence")
	}
	// Direct evidence overrides the tombstone (the node itself spoke).
	v.direct(Record{ID: 3, Zone: zone2(0, 0, 1, 0.5)}, 600)
	if !v.has(3) {
		t.Fatal("direct evidence must override a tombstone")
	}
}

func TestViewTombstoneExpires(t *testing.T) {
	v := newView()
	v.bury(4, 1000)
	if !v.tombstoned(4, 999) {
		t.Fatal("tombstone should hold before expiry")
	}
	if v.tombstoned(4, 1000) {
		t.Fatal("tombstone should expire at its deadline")
	}
	v.indirect(Record{ID: 4, Zone: zone2(0, 0, 1, 1)}, 1001, 900)
	if !v.has(4) {
		t.Fatal("expired tombstone must allow re-adding")
	}
}

func TestViewExpire(t *testing.T) {
	v := newView()
	v.direct(Record{ID: 1, Zone: zone2(0, 0, 0.5, 1)}, 100)
	v.direct(Record{ID: 2, Zone: zone2(0.5, 0, 1, 1)}, 300)
	// Only active entries are liveness-checked.
	v.markRanked([]canpkg.NodeID{1, 2})
	gone := v.expire(200, -1<<60, 999)
	if len(gone) != 1 || gone[0] != 1 {
		t.Fatalf("expire removed %v, want [1]", gone)
	}
	if v.has(1) || !v.has(2) {
		t.Fatal("wrong entries removed")
	}
	if !v.tombstoned(1, 500) {
		t.Fatal("expired entry not tombstoned")
	}
}

func TestViewIDsSorted(t *testing.T) {
	v := newView()
	for _, id := range []canpkg.NodeID{5, 1, 3} {
		v.direct(Record{ID: id, Zone: zone2(0, 0, 1, 1)}, 0)
	}
	ids := v.ids()
	if ids[0] != 1 || ids[1] != 3 || ids[2] != 5 {
		t.Fatalf("ids = %v, want sorted", ids)
	}
}

func TestUncoveredFaceDetectsHole(t *testing.T) {
	// Self owns the left half; the right half is split between two
	// neighbors stacked vertically.
	self := zone2(0, 0, 0.5, 1)
	v := newView()
	v.direct(Record{ID: 1, Zone: zone2(0.5, 0, 1, 0.5)}, 0)
	if !v.uncoveredFace(self) {
		t.Fatal("missing upper-right neighbor not detected")
	}
	v.direct(Record{ID: 2, Zone: zone2(0.5, 0.5, 1, 1)}, 0)
	if v.uncoveredFace(self) {
		t.Fatal("fully covered face reported as uncovered")
	}
}

func TestUncoveredFaceIgnoresOuterFaces(t *testing.T) {
	// A node owning the whole space has no inner faces at all.
	v := newView()
	if v.uncoveredFace(zone2(0, 0, 1, 1)) {
		t.Fatal("outer faces of the unit cube must not count as uncovered")
	}
}

func TestUncoveredFaceLowSide(t *testing.T) {
	self := zone2(0.5, 0, 1, 1)
	v := newView()
	if !v.uncoveredFace(self) {
		t.Fatal("uncovered low face not detected")
	}
	v.direct(Record{ID: 1, Zone: zone2(0, 0, 0.5, 1)}, 0)
	if v.uncoveredFace(self) {
		t.Fatal("covered low face reported as uncovered")
	}
}

func TestPassiveEntriesSurviveExpiry(t *testing.T) {
	v := newView()
	v.direct(Record{ID: 1, Zone: zone2(0, 0, 0.5, 1)}, 100)
	// Not ranked by us, not ranking us: passive cached hint.
	if gone := v.expire(200, -1<<60, 999); len(gone) != 0 {
		t.Fatalf("passive entry expired: %v", gone)
	}
	if !v.has(1) {
		t.Fatal("passive entry removed")
	}
	// Once promoted (ranked), silence kills it.
	v.markRanked([]canpkg.NodeID{1})
	if gone := v.expire(200, -1<<60, 999); len(gone) != 1 {
		t.Fatal("promoted silent entry not expired")
	}
}

func TestReciprocalsTracksRankedBy(t *testing.T) {
	v := newView()
	v.direct(Record{ID: 1, Zone: zone2(0, 0, 0.5, 1)}, 100)
	v.direct(Record{ID: 2, Zone: zone2(0.5, 0, 1, 1)}, 100)
	v.rankedBy(1, 150)
	got := v.reciprocals(120)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("reciprocals = %v, want [1]", got)
	}
	if len(v.reciprocals(200)) != 0 {
		t.Fatal("stale ranking counted as reciprocal")
	}
}

func TestRankedRespectsPerFaceCap(t *testing.T) {
	self := zone2(0, 0, 0.5, 1)
	v := newView()
	// Three abutters on the +x face with different overlaps.
	v.direct(Record{ID: 1, Zone: zone2(0.5, 0, 1, 0.6)}, 0)   // overlap 0.6
	v.direct(Record{ID: 2, Zone: zone2(0.5, 0.6, 1, 0.9)}, 0) // overlap 0.3
	v.direct(Record{ID: 3, Zone: zone2(0.5, 0.9, 1, 1)}, 0)   // overlap 0.1
	got := v.ranked(self, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ranked = %v, want [1 2] (top overlaps)", got)
	}
	if got := v.ranked(self, 0); len(got) != 3 {
		t.Fatalf("perFace=0 should return all entries, got %v", got)
	}
	if got := v.ranked(self, 1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("perFace=1 = %v, want [1]", got)
	}
}

// TestViewExpireDeadlineBoundary pins the exclusive-deadline rule on
// both sides: a record heard exactly at the deadline (timestamped
// precisely timeout ago) survives the tick, and one tick older expires.
// The same edge holds for the passive horizon and for the lastRankedBy
// activity test, so every liveness comparison in expire shares one
// boundary convention.
func TestViewExpireDeadlineBoundary(t *testing.T) {
	const deadline = 1000

	v := newView()
	v.direct(Record{ID: 1, Zone: zone2(0, 0, 0.5, 1)}, deadline)   // exactly at the deadline
	v.direct(Record{ID: 2, Zone: zone2(0.5, 0, 1, 1)}, deadline-1) // one tick older
	v.markRanked([]canpkg.NodeID{1, 2})
	if gone := v.expire(deadline, -1<<60, 9999); len(gone) != 1 || gone[0] != 2 {
		t.Fatalf("expire removed %v, want exactly [2]", gone)
	}
	if !v.has(1) {
		t.Fatal("record heard exactly timeout ago expired; the deadline must be exclusive")
	}
	// The surviving edge record is strictly older on the next tick.
	v.markRanked([]canpkg.NodeID{1})
	if gone := v.expire(deadline+1, -1<<60, 9999); len(gone) != 1 || gone[0] != 1 {
		t.Fatalf("next tick removed %v, want [1]", gone)
	}

	// lastRankedBy == deadline still counts as active (>=): the entry is
	// liveness-checked, not parked as a passive hint.
	v = newView()
	v.direct(Record{ID: 3, Zone: zone2(0, 0, 0.5, 1)}, deadline-1)
	v.get(3).lastRankedBy = deadline
	if gone := v.expire(deadline, -1<<60, 9999); len(gone) != 1 || gone[0] != 3 {
		t.Fatalf("rankedBy-at-deadline entry not treated as active: gone=%v", gone)
	}

	// Passive horizon shares the convention: at the deadline survives,
	// one older silently drops (no tombstone). The entries are passive
	// because they are unranked in both directions (lastRankedBy zero is
	// older than any positive active deadline).
	v = newView()
	v.direct(Record{ID: 4, Zone: zone2(0, 0, 0.5, 1)}, deadline)
	v.direct(Record{ID: 5, Zone: zone2(0.5, 0, 1, 1)}, deadline-1)
	if gone := v.expire(deadline+1, deadline, 9999); len(gone) != 0 {
		t.Fatalf("passive pruning buried %v", gone)
	}
	if !v.has(4) || v.has(5) {
		t.Fatal("passive horizon boundary off by one")
	}
	if v.tombstoned(5, deadline+1) {
		t.Fatal("passive removal must be silent, not tombstoned")
	}
}

// TestGraceExpiryBoundary ties the half-timeout grace credit to the
// expiry deadline through a real Config: an indirectly learned entry
// admitted at graceTime(now) survives heartbeat ticks for exactly half
// a timeout, then expires — consistently with a direct record heard at
// the same instant.
func TestGraceExpiryBoundary(t *testing.T) {
	cfg := fastConfig(Vanilla)
	s := NewSim(2, cfg)
	a, err := s.Join(geom.Point{0.25, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Host(a.ID)

	now := sim.Time(100 * cfg.HeartbeatPeriod)
	grace := h.graceTime(now)
	half := sim.Time(cfg.timeout() / 2)
	if grace != now-half {
		t.Fatalf("graceTime = %d, want now-timeout/2 = %d", grace, now-half)
	}

	check := func(tick sim.Time, wantAlive bool) {
		t.Helper()
		v := newView()
		v.indirect(Record{ID: 9, Zone: zone2(0.5, 0, 1, 1)}, now, grace)
		v.markRanked([]canpkg.NodeID{9})
		v.expire(tick-sim.Time(cfg.timeout()), -1<<60, tick+1)
		if v.has(9) != wantAlive {
			t.Fatalf("graced entry at tick %d: alive=%v, want %v", tick, v.has(9), wantAlive)
		}
	}
	// Deadline exactly at the grace timestamp: survives (exclusive rule).
	check(now+half, true)
	// First strictly later deadline: expires.
	check(now+half+1, false)
}
