package can_test

import (
	"fmt"
	"math"
	"testing"

	"hetgrid/internal/can"
	"hetgrid/internal/geom"
	"hetgrid/internal/resource"
	"hetgrid/internal/rng"
	"hetgrid/internal/workload"
)

// refZoneDistance is the unpruned distance RouteAppend's neighbor scan
// once computed for every neighbor: the full per-dimension gap, squared,
// summed and rooted.
func refZoneDistance(z geom.Zone, p geom.Point) float64 {
	sum := 0.0
	for i := range p {
		var gap float64
		switch {
		case p[i] < z.Lo[i]:
			gap = z.Lo[i] - p[i]
		case p[i] >= z.Hi[i]:
			gap = p[i] - z.Hi[i] + can.BoundaryEps
		}
		sum += gap * gap
	}
	return math.Sqrt(sum)
}

// refRoute is greedy CAN routing without pruning, the oracle for
// RouteAppend: each hop goes to the first containing neighbor, else to
// the first neighbor of least refZoneDistance.
func refRoute(o *can.Overlay, from can.NodeID, target geom.Point) ([]*can.Node, error) {
	cur := o.Node(from)
	if cur == nil {
		return nil, fmt.Errorf("can: route from unknown node %d", from)
	}
	if len(target) != len(cur.Zone.Lo) {
		return nil, fmt.Errorf("can: target has %d dims, overlay has %d", len(target), len(cur.Zone.Lo))
	}
	path := []*can.Node{cur}
	maxHops := 10*o.Len() + 10
	for !cur.Zone.Contains(target) {
		curDist := refZoneDistance(cur.Zone, target)
		var next *can.Node
		bestDist := math.Inf(1)
		for _, nb := range o.NeighborView(cur.ID) {
			if nb.Zone.Contains(target) {
				next, bestDist = nb, 0
				break
			}
			if d := refZoneDistance(nb.Zone, target); d < bestDist {
				bestDist, next = d, nb
			}
		}
		if next == nil || bestDist >= curDist {
			return path, fmt.Errorf("can: routing stuck at node %d (dist %g): adjacency violated", cur.ID, curDist)
		}
		cur = next
		path = append(path, cur)
		if len(path) > maxHops {
			return path, fmt.Errorf("can: routing exceeded %d hops", maxHops)
		}
	}
	return path, nil
}

// catalogOverlay joins nodes drawn from the workload's node catalogs at
// their Space points, as the load-balance driver does, so zone
// boundaries sit on catalog values.
func catalogOverlay(t testing.TB, space *resource.Space, nodes int, seed int64) *can.Overlay {
	t.Helper()
	o := can.NewOverlay(space.Dims())
	gen := workload.NewNodeGen(space, seed)
	redraw := rng.New(seed)
	for i := 0; i < nodes; i++ {
		caps := gen.One()
		for try := 0; ; try++ {
			_, err := o.Join(space.NodePoint(caps), caps)
			if err == nil {
				break
			}
			if try >= 8 {
				t.Fatalf("join %d: %v", i, err)
			}
			caps.Virtual = redraw.Float64() * 0.999999
		}
	}
	return o
}

// checkRoutesMatchReference routes catalog job points from random
// nodes and requires RouteAppend and refRoute to agree node for node
// and on the error.
func checkRoutesMatchReference(t *testing.T, o *can.Overlay, space *resource.Space, routes int, seed int64) {
	t.Helper()
	jobs := workload.NewJobGen(space, seed)
	s := rng.New(seed)
	nodes := o.Nodes()
	target := make(geom.Point, space.Dims())
	var path []*can.Node
	for i := 0; i < routes; i++ {
		j, _ := jobs.Next()
		// Half the jobs sit on a node's virtual coordinate, so the
		// virtual dimension lands on split planes too.
		virtual := s.Float64()
		if i%2 == 0 {
			virtual = nodes[s.Intn(len(nodes))].Point[space.VirtualDim()]
		}
		space.JobPointInto(target, j.Req, virtual)
		from := nodes[s.Intn(len(nodes))].ID
		want, wantErr := refRoute(o, from, target)
		var err error
		path, err = o.RouteAppend(path, from, target)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("route %d from %d to %v: error %v, reference %v", i, from, target, err, wantErr)
		}
		if len(path) != len(want) {
			t.Fatalf("route %d from %d to %v: %d hops, reference %d", i, from, target, len(path)-1, len(want)-1)
		}
		for h := range want {
			if path[h] != want[h] {
				t.Fatalf("route %d from %d to %v: hop %d at node %d, reference %d", i, from, target, h, path[h].ID, want[h].ID)
			}
		}
	}
}

// TestRouteAppendMatchesReference pins the pruned neighbor scan to the
// unpruned sqrt-domain reference on 2000-node catalog overlays at every
// dimensionality the evaluation uses.
func TestRouteAppendMatchesReference(t *testing.T) {
	for slots := 0; slots <= 3; slots++ {
		space := resource.NewSpace(slots)
		t.Run(fmt.Sprintf("dims=%d", space.Dims()), func(t *testing.T) {
			o := catalogOverlay(t, space, 2000, int64(11+slots))
			checkRoutesMatchReference(t, o, space, 2000, int64(slots))

			from := o.Nodes()[0].ID
			for _, bad := range []struct {
				from   can.NodeID
				target geom.Point
			}{
				{-1, make(geom.Point, space.Dims())},
				{from, make(geom.Point, space.Dims()-1)},
			} {
				_, err := o.RouteAppend(nil, bad.from, bad.target)
				_, wantErr := refRoute(o, bad.from, bad.target)
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("route from %d to %d dims: error %v, reference %v", bad.from, len(bad.target), err, wantErr)
				}
			}
		})
	}
}

// FuzzRouteAppendMatchesReference runs the same differential on smaller
// overlays of fuzz-chosen dimensionality, population and seed.
func FuzzRouteAppendMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, slots uint8, nodes uint16) {
		space := resource.NewSpace(int(slots % 4))
		o := catalogOverlay(t, space, 2+int(nodes%500), seed)
		checkRoutesMatchReference(t, o, space, 200, seed)
	})
}
