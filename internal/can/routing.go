package can

import (
	"fmt"
	"math"

	"hetgrid/internal/geom"
)

// boundaryEps charges a tiny distance for sitting exactly on a zone's
// high boundary. Zones are half-open, so a point with p[i] == Hi[i] is
// not contained; without the epsilon such a point would be at distance
// zero from zones that merely touch it, stalling greedy routing on the
// plateau (job coordinates frequently coincide with split planes since
// both come from the same discrete resource catalogs). With it,
// distance zero holds exactly when the zone contains the point, and
// each touching dimension resolved strictly decreases the distance.
const boundaryEps = 1e-9

// zoneGapSq returns the squared Euclidean distance from point p to the
// zone as a half-open set — the per-dimension gap between p and z's
// extent, squared and summed in dimension order — and whether z
// contains p, which holds exactly when no dimension has a gap. The sum
// stops early, short of the full distance, once it reaches bound: the
// terms are non-negative, so the partial sum never decreases and the
// full one would be at least bound too. A zone that contains p never
// stops early (it adds no terms).
func zoneGapSq(z geom.Zone, p geom.Point, bound float64) (sq float64, inside bool) {
	inside = true
	lo, hi := z.Lo[:len(p)], z.Hi[:len(p)]
	for i, x := range p {
		var gap float64
		switch {
		case x < lo[i]:
			gap = lo[i] - x
		case x >= hi[i]:
			gap = x - hi[i] + boundaryEps
		default:
			continue
		}
		inside = false
		sq += gap * gap
		if sq >= bound {
			return sq, false
		}
	}
	return sq, inside
}

// Route performs greedy CAN routing from the node from toward the node
// owning target: at each hop it forwards to the neighbor whose zone is
// closest to the target (ties broken by lowest ID for determinism). It
// returns the full path including both endpoints. Because zones
// partition the space, greedy forwarding makes strict progress and
// always terminates at the owner.
func (o *Overlay) Route(from NodeID, target geom.Point) ([]*Node, error) {
	return o.RouteAppend(nil, from, target)
}

// RouteAppend is Route with a caller-supplied path buffer: the path is
// appended to path[:0], so a scheduler placing jobs in a loop can reuse
// one buffer and route without allocating. The returned slice aliases
// the buffer (grown if needed).
func (o *Overlay) RouteAppend(path []*Node, from NodeID, target geom.Point) ([]*Node, error) {
	path = path[:0]
	cur := o.nodes[from]
	if cur == nil {
		return nil, fmt.Errorf("can: route from unknown node %d", from)
	}
	if len(target) != o.dims {
		return nil, fmt.Errorf("can: target has %d dims, overlay has %d", len(target), o.dims)
	}
	path = append(path, cur)
	maxHops := 10*len(o.nodes) + 10
	for {
		curSq, arrived := zoneGapSq(cur.Zone, target, math.Inf(1))
		if arrived {
			return path, nil
		}
		curDist := math.Sqrt(curSq)
		// The best neighbor is the first of least distance, compared as
		// distances (square roots): distinct squared gaps can round to
		// the same root, and such a tie must go to the earlier neighbor.
		// A neighbor whose partial squared gap already reaches the
		// best's square cannot have a smaller root (Sqrt is monotone),
		// so its sum is cut short and it is skipped.
		var next *Node
		bestDist, bestSq := math.Inf(1), math.Inf(1)
		for _, nb := range o.NeighborView(cur.ID) {
			sq, in := zoneGapSq(nb.Zone, target, bestSq)
			if in {
				next, bestDist = nb, 0
				break
			}
			if sq >= bestSq {
				continue
			}
			if d := math.Sqrt(sq); d < bestDist {
				next, bestDist, bestSq = nb, d, sq
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
}
