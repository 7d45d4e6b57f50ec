package can

import (
	"math"
	"testing"

	"hetgrid/internal/geom"
	"hetgrid/internal/rng"
)

func randomPoint(s *rng.Stream, d int) geom.Point {
	p := make(geom.Point, d)
	for i := range p {
		p[i] = s.Float64() * 0.999
	}
	return p
}

// buildOverlay joins n nodes at random points, retrying on coordinate
// collisions, and validates the result.
func buildOverlay(t *testing.T, dims, n int, seed int64) *Overlay {
	t.Helper()
	o := NewOverlay(dims)
	s := rng.New(seed)
	for i := 0; i < n; i++ {
		var err error
		for try := 0; try < 5; try++ {
			if _, err = o.Join(randomPoint(s, dims), nil); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("join %d failed: %v", i, err)
		}
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("invalid overlay after %d joins: %v", n, err)
	}
	return o
}

func TestFirstNodeOwnsWholeSpace(t *testing.T) {
	o := NewOverlay(3)
	n, err := o.Join(geom.Point{0.5, 0.5, 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Zone.Equal(geom.UnitZone(3)) {
		t.Fatalf("first node zone = %v, want unit zone", n.Zone)
	}
	if o.Len() != 1 {
		t.Fatalf("Len = %d, want 1", o.Len())
	}
	if len(o.NeighborIDs(n.ID)) != 0 {
		t.Fatal("single node must have no neighbors")
	}
}

func TestJoinSplitsBetweenPoints(t *testing.T) {
	o := NewOverlay(2)
	a, _ := o.Join(geom.Point{0.2, 0.5}, nil)
	b, err := o.Join(geom.Point{0.8, 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Farthest-separated dimension is 0; plane midway at 0.5.
	if a.Zone.Hi[0] != 0.5 || b.Zone.Lo[0] != 0.5 {
		t.Fatalf("split plane wrong: a=%v b=%v", a.Zone, b.Zone)
	}
	if !a.Zone.Contains(a.Point) || !b.Zone.Contains(b.Point) {
		t.Fatal("zones must contain their owners' points")
	}
	if !o.IsNeighbor(a.ID, b.ID) {
		t.Fatal("split halves must be neighbors")
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinDuplicatePointRejected(t *testing.T) {
	o := NewOverlay(2)
	p := geom.Point{0.3, 0.3}
	if _, err := o.Join(p, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Join(p.Clone(), nil); err != ErrDuplicatePoint {
		t.Fatalf("duplicate join error = %v, want ErrDuplicatePoint", err)
	}
}

// TestJoinAdjacentFloatsOnLowerFace pins the split-plane rounding case:
// two points one ulp apart, the lower one on its zone's lower face, have
// a midpoint that rounds onto that face. Join must report the points as
// inseparable instead of panicking in Zone.Split.
func TestJoinAdjacentFloatsOnLowerFace(t *testing.T) {
	o := NewOverlay(2)
	for _, p := range []geom.Point{{0.25, 0.5}, {0.75, 0.5}, {0.5, 0.5}} {
		if _, err := o.Join(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The node at 0.5 owns [0.5, 0.625) in dimension 0.
	next := math.Nextafter(0.5, 1)
	if _, err := o.Join(geom.Point{next, 0.5}, nil); err != ErrDuplicatePoint {
		t.Fatalf("adjacent-float join error = %v, want ErrDuplicatePoint", err)
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("overlay invalid after rejected join: %v", err)
	}
	// Differing in a second dimension leaves a plane to split on.
	n, err := o.Join(geom.Point{next, 0.75}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Zone.Contains(n.Point) {
		t.Fatalf("joined node's zone %v does not contain its point %v", n.Zone, n.Point)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinRejectsBadPoints(t *testing.T) {
	o := NewOverlay(2)
	if _, err := o.Join(geom.Point{0.5}, nil); err == nil {
		t.Fatal("wrong dimensionality accepted")
	}
	if _, err := o.Join(geom.Point{1.0, 0.5}, nil); err == nil {
		t.Fatal("coordinate 1.0 accepted (space is half-open)")
	}
	if _, err := o.Join(geom.Point{-0.1, 0.5}, nil); err == nil {
		t.Fatal("negative coordinate accepted")
	}
}

func TestOwnerLocatesPoints(t *testing.T) {
	o := buildOverlay(t, 3, 50, 1)
	s := rng.New(99)
	for i := 0; i < 200; i++ {
		p := randomPoint(s, 3)
		owner := o.Owner(p)
		if owner == nil || !owner.Zone.Contains(p) {
			t.Fatalf("Owner(%v) = %v; zone does not contain point", p, owner)
		}
	}
}

func TestZonesPartitionSpace(t *testing.T) {
	o := buildOverlay(t, 4, 100, 2)
	total := 0.0
	for _, n := range o.Nodes() {
		total += n.Zone.Volume()
	}
	if total < 0.999999 || total > 1.000001 {
		t.Fatalf("zone volumes sum to %v, want 1", total)
	}
}

func TestLastNodeLeaveEmptiesOverlay(t *testing.T) {
	o := NewOverlay(2)
	n, _ := o.Join(geom.Point{0.5, 0.5}, nil)
	if _, err := o.Leave(n.ID); err != nil {
		t.Fatal(err)
	}
	if o.Len() != 0 {
		t.Fatalf("Len = %d after last leave, want 0", o.Len())
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	// The overlay must accept joins again.
	if _, err := o.Join(geom.Point{0.1, 0.1}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeaveOfUnknownNode(t *testing.T) {
	o := NewOverlay(2)
	if _, err := o.Leave(123); err == nil {
		t.Fatal("leave of unknown node did not error")
	}
}

func TestLeaveSiblingLeafMerges(t *testing.T) {
	o := NewOverlay(2)
	a, _ := o.Join(geom.Point{0.2, 0.5}, nil)
	b, _ := o.Join(geom.Point{0.8, 0.5}, nil)
	plan, err := o.Leave(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Taker != a || plan.Merged != nil {
		t.Fatalf("plan = %+v, want direct sibling takeover by a", plan)
	}
	if !a.Zone.Equal(geom.UnitZone(2)) {
		t.Fatalf("a's zone after merge = %v, want unit zone", a.Zone)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaveWithDeepSiblingUsesDeepestPair(t *testing.T) {
	// Build a 1-ish dimensional chain so the sibling subtree is deep:
	// points along dim 0 produce nested splits.
	o := NewOverlay(2)
	pts := []geom.Point{
		{0.1, 0.5}, {0.9, 0.5}, {0.6, 0.5}, {0.75, 0.5},
	}
	var nodes []*Node
	for _, p := range pts {
		n, err := o.Join(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	// Node 0 owns the low zone; its sibling subtree holds nodes 1..3.
	plan, err := o.Leave(nodes[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Merged == nil {
		t.Fatalf("expected a deepest-pair move, got %+v", plan)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	// The taker now owns the vacated zone, so it must contain its point?
	// No: the taker moved, so the vacated zone need not contain the
	// taker's coordinate. This is the one place the CAN relaxes the
	// zone-contains-point invariant transiently in a real system; our
	// simulator keeps the node's point unchanged, so Validate must have
	// been updated... instead we check ownership coverage only.
	total := 0.0
	for _, n := range o.Nodes() {
		total += n.Zone.Volume()
	}
	if total < 0.999999 || total > 1.000001 {
		t.Fatalf("coverage broken after deep takeover: %v", total)
	}
}

func TestTakeoverPlanMatchesLeave(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		o := buildOverlay(t, 3, 30, seed+100)
		for _, n := range o.Nodes() {
			plan, ok := o.Takeover(n.ID)
			if !ok {
				t.Fatalf("no takeover plan for node %d in 30-node overlay", n.ID)
			}
			if plan.Taker == nil || plan.Taker.ID == n.ID {
				t.Fatalf("bad taker in plan %+v", plan)
			}
		}
		// Leave one node and verify the executed plan matches the query.
		victim := o.Nodes()[int(seed)%o.Len()]
		want, _ := o.Takeover(victim.ID)
		got, err := o.Leave(victim.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Taker != want.Taker || got.Merged != want.Merged {
			t.Fatalf("executed plan %+v differs from predicted %+v", got, want)
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestTakeoverSingleNode(t *testing.T) {
	o := NewOverlay(2)
	n, _ := o.Join(geom.Point{0.5, 0.5}, nil)
	if _, ok := o.Takeover(n.ID); ok {
		t.Fatal("single node must have no takeover plan")
	}
}

func TestSplitHistoryReflectsZone(t *testing.T) {
	o := buildOverlay(t, 3, 40, 3)
	for _, n := range o.Nodes() {
		recs := o.SplitHistory(n.ID)
		// Replaying the history from the unit zone must reproduce the
		// node's current zone.
		z := geom.UnitZone(3)
		for _, r := range recs {
			lo, hi := z.Split(r.Dim, r.Plane)
			if r.Low {
				z = lo
			} else {
				z = hi
			}
		}
		if !z.Equal(n.Zone) {
			t.Fatalf("node %d: replayed history %v -> %v, zone is %v", n.ID, recs, z, n.Zone)
		}
	}
}

func TestNodesSortedByID(t *testing.T) {
	o := buildOverlay(t, 2, 20, 4)
	ns := o.Nodes()
	for i := 1; i < len(ns); i++ {
		if ns[i-1].ID >= ns[i].ID {
			t.Fatal("Nodes() not sorted by ID")
		}
	}
}

// TestChurnProperty is the core structural property test: under a long
// random sequence of joins and leaves, every overlay invariant holds
// after every operation (zones partition the space, adjacency matches
// brute-force face sharing, tree is consistent).
func TestChurnProperty(t *testing.T) {
	for _, dims := range []int{2, 3, 5} {
		dims := dims
		s := rng.New(int64(1000 + dims))
		o := NewOverlay(dims)
		var live []NodeID
		ops := 400
		if testing.Short() {
			ops = 120
		}
		for op := 0; op < ops; op++ {
			if len(live) == 0 || s.Bool(0.55) {
				n, err := o.Join(randomPoint(s, dims), nil)
				if err != nil {
					continue
				}
				live = append(live, n.ID)
			} else {
				i := s.Intn(len(live))
				id := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if _, err := o.Leave(id); err != nil {
					t.Fatalf("dims %d op %d: leave: %v", dims, op, err)
				}
			}
			// Validating every op is O(n²); validate every few ops.
			if op%7 == 0 {
				if err := o.Validate(); err != nil {
					t.Fatalf("dims %d op %d: %v", dims, op, err)
				}
			}
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("dims %d final: %v", dims, err)
		}
	}
}

func TestRouteReachesOwner(t *testing.T) {
	o := buildOverlay(t, 3, 80, 5)
	s := rng.New(77)
	nodes := o.Nodes()
	for i := 0; i < 100; i++ {
		from := nodes[s.Intn(len(nodes))]
		target := randomPoint(s, 3)
		path, err := o.Route(from.ID, target)
		if err != nil {
			t.Fatalf("route failed: %v", err)
		}
		last := path[len(path)-1]
		if !last.Zone.Contains(target) {
			t.Fatalf("route ended at %d whose zone does not contain target", last.ID)
		}
		if path[0] != from {
			t.Fatal("path must start at the source")
		}
		// Consecutive path nodes must be neighbors.
		for j := 1; j < len(path); j++ {
			if !o.IsNeighbor(path[j-1].ID, path[j].ID) {
				t.Fatal("path hops between non-neighbors")
			}
		}
	}
}

func TestRouteFromSelfZone(t *testing.T) {
	o := buildOverlay(t, 2, 10, 6)
	n := o.Nodes()[0]
	path, err := o.Route(n.ID, n.Point)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 1 || path[0] != n {
		t.Fatalf("routing to own zone should be a single-node path, got %d hops", len(path))
	}
}

func TestRouteErrors(t *testing.T) {
	o := buildOverlay(t, 2, 5, 7)
	if _, err := o.Route(999, geom.Point{0.5, 0.5}); err == nil {
		t.Fatal("route from unknown node did not error")
	}
	if _, err := o.Route(o.Nodes()[0].ID, geom.Point{0.5}); err == nil {
		t.Fatal("route to wrong-dimension target did not error")
	}
}

func TestAvgNeighborsGrowsWithDims(t *testing.T) {
	avg2 := buildOverlay(t, 2, 200, 8).AvgNeighbors()
	avg6 := buildOverlay(t, 6, 200, 8).AvgNeighbors()
	if avg6 <= avg2 {
		t.Fatalf("avg neighbors: dims=6 %v <= dims=2 %v; should grow with dimensionality", avg6, avg2)
	}
}

func TestStatsCounters(t *testing.T) {
	o := buildOverlay(t, 2, 10, 9)
	st := o.Stats()
	if st.Nodes != 10 || st.Joins != 10 || st.Leaves != 0 {
		t.Fatalf("stats = %+v", st)
	}
	o.Leave(o.Nodes()[0].ID)
	st = o.Stats()
	if st.Nodes != 9 || st.Leaves != 1 {
		t.Fatalf("stats after leave = %+v", st)
	}
}
