package proto

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"hetgrid/internal/can"
	"hetgrid/internal/geom"
	"hetgrid/internal/sim"
)

// refView is the map-based neighbor table the sorted-slice view
// replaced, kept as the differential oracle: every mutation and query
// below is the original implementation.
type refView struct {
	entries    map[can.NodeID]*entry
	tombstones map[can.NodeID]sim.Time
}

func newRefView() *refView {
	return &refView{entries: map[can.NodeID]*entry{}, tombstones: map[can.NodeID]sim.Time{}}
}

func (v *refView) ids() []can.NodeID {
	out := make([]can.NodeID, 0, len(v.entries))
	for id := range v.entries {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (v *refView) recordsOf(ids []can.NodeID) []Record {
	var recs []Record
	for _, id := range ids {
		if e := v.entries[id]; e != nil {
			recs = append(recs, e.rec)
		}
	}
	return recs
}

func (v *refView) tombstoned(id can.NodeID, now sim.Time) bool {
	exp, ok := v.tombstones[id]
	if !ok {
		return false
	}
	if now >= exp {
		delete(v.tombstones, id)
		return false
	}
	return true
}

func (v *refView) bury(id can.NodeID, until sim.Time) {
	delete(v.entries, id)
	v.tombstones[id] = until
}

func (v *refView) direct(rec Record, now sim.Time) {
	delete(v.tombstones, rec.ID)
	if e := v.entries[rec.ID]; e != nil {
		e.rec, e.lastHeard, e.lastDirect = rec, now, now
		return
	}
	v.entries[rec.ID] = &entry{rec: rec, lastHeard: now, lastDirect: now}
}

func (v *refView) indirect(rec Record, now, graceTime sim.Time) {
	if v.tombstoned(rec.ID, now) {
		return
	}
	if e := v.entries[rec.ID]; e != nil {
		e.rec.Zone = rec.Zone
		return
	}
	v.entries[rec.ID] = &entry{rec: rec, lastHeard: graceTime}
}

func (v *refView) expire(deadline, passiveDeadline, buryUntil sim.Time) []can.NodeID {
	var gone, stale []can.NodeID
	for id, e := range v.entries {
		active := e.rankedByUs || e.lastRankedBy >= deadline
		switch {
		case active && e.lastHeard < deadline:
			gone = append(gone, id)
		case !active && e.lastHeard < passiveDeadline:
			stale = append(stale, id)
		}
	}
	slices.Sort(gone)
	for _, id := range gone {
		v.bury(id, buryUntil)
	}
	for _, id := range stale {
		delete(v.entries, id)
	}
	return gone
}

func (v *refView) markRanked(ids []can.NodeID) {
	for _, e := range v.entries {
		e.rankedByUs = false
	}
	for _, id := range ids {
		if e := v.entries[id]; e != nil {
			e.rankedByUs = true
		}
	}
}

func (v *refView) uncoveredFace(selfZone geom.Zone) bool {
	for dim := 0; dim < selfZone.Dims(); dim++ {
		for _, side := range []int{-1, +1} {
			if side < 0 && selfZone.Lo[dim] <= 0 || side > 0 && selfZone.Hi[dim] >= 1 {
				continue
			}
			got := 0.0
			for _, e := range v.entries {
				adim, adir, ok := selfZone.Abuts(e.rec.Zone)
				if ok && adim == dim && adir == side {
					got += selfZone.FaceOverlap(e.rec.Zone, dim)
				}
			}
			if got < selfZone.FaceArea(dim)*(1-1e-9) {
				return true
			}
		}
	}
	return false
}

func (v *refView) ranked(selfZone geom.Zone, perFace int) []can.NodeID {
	if perFace <= 0 {
		return v.ids()
	}
	var scored []faceScored
	for id, e := range v.entries {
		dim, dir, ok := selfZone.Abuts(e.rec.Zone)
		if !ok {
			continue
		}
		scored = append(scored, faceScored{dim, dir, id, selfZone.FaceOverlap(e.rec.Zone, dim)})
	}
	slices.SortFunc(scored, func(a, b faceScored) int {
		switch {
		case a.dim != b.dim:
			return a.dim - b.dim
		case a.dir != b.dir:
			return a.dir - b.dir
		case a.overlap != b.overlap:
			if a.overlap > b.overlap {
				return -1
			}
			return 1
		default:
			return int(a.id - b.id)
		}
	})
	out := []can.NodeID{}
	taken := 0
	for i, s := range scored {
		if i > 0 && (s.dim != scored[i-1].dim || s.dir != scored[i-1].dir) {
			taken = 0
		}
		if taken < perFace {
			out = append(out, s.id)
			taken++
		}
	}
	slices.Sort(out)
	return out
}

func (v *refView) reciprocals(since sim.Time) []can.NodeID {
	out := []can.NodeID{}
	for id, e := range v.entries {
		if e.lastRankedBy >= since {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

func (v *refView) emptyFace(selfZone geom.Zone) bool {
	var covLo, covHi uint64
	for _, e := range v.entries {
		if dim, dir, ok := selfZone.Abuts(e.rec.Zone); ok {
			if dir < 0 {
				covLo |= 1 << dim
			} else {
				covHi |= 1 << dim
			}
		}
	}
	for dim := 0; dim < selfZone.Dims(); dim++ {
		if selfZone.Lo[dim] > 0 && covLo&(1<<dim) == 0 || selfZone.Hi[dim] < 1 && covHi&(1<<dim) == 0 {
			return true
		}
	}
	return false
}

// receiveFull is Host.receiveFull's view-side effect: sender
// integration, the ranked-by stamp and the table merge.
func (v *refView) receiveFull(self Record, now, grace sim.Time, from Record, table []Record, ranked bool) {
	if _, _, ok := self.Zone.Abuts(from.Zone); ok {
		v.direct(from, now)
	} else {
		delete(v.entries, from.ID)
	}
	if ranked {
		if e := v.entries[from.ID]; e != nil {
			e.lastRankedBy = now
		}
	}
	for _, rec := range table {
		if rec.ID == self.ID {
			continue
		}
		if e := v.entries[rec.ID]; e != nil && e.rec.Zone.Equal(rec.Zone) {
			continue
		}
		if _, _, ok := self.Zone.Abuts(rec.Zone); ok {
			v.indirect(rec, now, grace)
		}
	}
}

// adoptZone is Host.adoptZone's view filter.
func (v *refView) adoptZone(z geom.Zone) {
	for id, e := range v.entries {
		if _, _, ok := z.Abuts(e.rec.Zone); !ok {
			delete(v.entries, id)
		}
	}
}

// viewFuzzer generates random operations over a small id and zone
// space: 2-d boxes on a 1/8 grid, so face overlaps sum exactly, and
// ids below 24, so tombstones, re-additions and table records collide
// with live entries often.
type viewFuzzer struct {
	r   *rand.Rand
	now sim.Time
}

const viewFuzzIDs = 24

func (f *viewFuzzer) id() can.NodeID { return can.NodeID(f.r.Intn(viewFuzzIDs)) }

func (f *viewFuzzer) span() (lo, hi float64) {
	a := f.r.Intn(8)
	b := a + 1 + f.r.Intn(8-a)
	return float64(a) / 8, float64(b) / 8
}

func (f *viewFuzzer) box() geom.Zone {
	x0, x1 := f.span()
	y0, y1 := f.span()
	return zone2(x0, y0, x1, y1)
}

// near returns a box abutting self on a random face most of the time,
// so geometry filters keep as well as drop records.
func (f *viewFuzzer) near(self geom.Zone) geom.Zone {
	if f.r.Intn(4) == 0 {
		return f.box()
	}
	z := f.box()
	dim, side := f.r.Intn(2), f.r.Intn(2)
	w := z.Hi[dim] - z.Lo[dim]
	if side == 0 && self.Lo[dim]-w >= 0 {
		z.Lo[dim], z.Hi[dim] = self.Lo[dim]-w, self.Lo[dim]
	} else if self.Hi[dim]+w <= 1 {
		z.Lo[dim], z.Hi[dim] = self.Hi[dim], self.Hi[dim]+w
	}
	return z
}

func (f *viewFuzzer) ascendingIDs() []can.NodeID {
	var ids []can.NodeID
	for id := can.NodeID(0); id < viewFuzzIDs; id++ {
		if f.r.Intn(3) == 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// runViewDifferential applies steps random operations to a view (through
// a Host for receiveFull and adoptZone) and to the map-based oracle,
// comparing state and every query after each one.
func runViewDifferential(t *testing.T, seed int64, steps int) {
	f := &viewFuzzer{r: rand.New(rand.NewSource(seed)), now: 1000}
	cfg := fastConfig(Adaptive)
	s := NewSim(2, cfg)
	selfID := can.NodeID(viewFuzzIDs / 2)
	h := newHost(s, selfID, zone2(0.25, 0.25, 0.5, 0.5))
	ref := newRefView()

	for step := 0; step < steps; step++ {
		f.now += sim.Time(f.r.Intn(int(cfg.HeartbeatPeriod)))
		now := f.now
		var op string
		switch f.r.Intn(10) {
		case 0:
			op = "direct"
			rec := Record{ID: f.id(), Zone: f.near(h.zone)}
			h.view.direct(rec, now)
			ref.direct(rec, now)
		case 1:
			op = "indirect"
			rec := Record{ID: f.id(), Zone: f.near(h.zone)}
			grace := now - sim.Time(f.r.Intn(int(cfg.timeout())))
			h.view.indirect(rec, now, grace)
			ref.indirect(rec, now, grace)
		case 2:
			op = "bury"
			id, until := f.id(), now+sim.Time(f.r.Intn(int(3*cfg.HeartbeatPeriod)))
			h.view.bury(id, until)
			ref.bury(id, until)
		case 3:
			op = "remove"
			id := f.id()
			h.view.remove(id)
			delete(ref.entries, id)
		case 4:
			op = "expire"
			deadline := now - sim.Time(f.r.Intn(int(cfg.timeout())))
			passive := sim.Time(-1 << 60)
			if f.r.Intn(2) == 0 {
				passive = deadline - sim.Time(f.r.Intn(int(cfg.timeout())))
			}
			until := now + sim.Time(f.r.Intn(int(cfg.timeout())))
			got := slices.Clone(h.view.expire(deadline, passive, until))
			if want := ref.expire(deadline, passive, until); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: expire gone = %v, reference %v", seed, step, got, want)
			}
		case 5:
			op = "markRanked"
			ids := f.ascendingIDs()
			if f.r.Intn(2) == 0 {
				ids = slices.Clone(h.view.ranked(h.zone, 1+f.r.Intn(3)))
			}
			h.view.markRanked(ids)
			ref.markRanked(ids)
		case 6:
			op = "rankedBy"
			id := f.id()
			h.view.rankedBy(id, now)
			if e := ref.entries[id]; e != nil {
				e.lastRankedBy = now
			}
		case 7:
			op = "adoptZone"
			z := f.near(h.zone)
			if f.r.Intn(2) == 0 {
				z = f.box()
			}
			h.adoptZone(z)
			ref.adoptZone(h.zone)
		default:
			op = "receiveFull"
			from := Record{ID: f.id(), Zone: f.near(h.zone)}
			var table []Record
			for id := can.NodeID(0); id < viewFuzzIDs; id++ {
				switch f.r.Intn(4) {
				case 0:
					table = append(table, Record{ID: id, Zone: f.near(h.zone)})
				case 1:
					if e := ref.entries[id]; e != nil && f.r.Intn(2) == 0 {
						table = append(table, Record{ID: id, Zone: e.rec.Zone})
					}
				}
			}
			if f.r.Intn(4) == 0 {
				op = "receiveFull(unsorted)"
				f.r.Shuffle(len(table), func(i, j int) { table[i], table[j] = table[j], table[i] })
			}
			ranked := f.r.Intn(2) == 0
			h.receiveFull(now, from, table, ranked)
			ref.receiveFull(h.selfRecord(), now, h.graceTime(now), from, table, ranked)
		}
		if err := compareViews(h.view, ref, h.zone, f); err != nil {
			t.Fatalf("seed %d step %d after %s: %v", seed, step, op, err)
		}
	}
}

// compareViews checks that v and the oracle hold the same entries and
// tombstones and answer every query identically.
func compareViews(v *view, ref *refView, self geom.Zone, f *viewFuzzer) error {
	if len(v.entries) != len(ref.entries) {
		return fmt.Errorf("%d entries, reference %d", len(v.entries), len(ref.entries))
	}
	for i := range v.entries {
		e := v.entries[i]
		if i > 0 && v.entries[i-1].rec.ID >= e.rec.ID {
			return fmt.Errorf("entries not strictly ascending at %d", i)
		}
		if want := ref.entries[e.rec.ID]; want == nil || !reflect.DeepEqual(e, *want) {
			return fmt.Errorf("entry %d = %+v, reference %+v", e.rec.ID, e, want)
		}
	}
	if len(v.tombstones) != len(ref.tombstones) {
		return fmt.Errorf("%d tombstones, reference %d", len(v.tombstones), len(ref.tombstones))
	}
	for i, ts := range v.tombstones {
		if i > 0 && v.tombstones[i-1].id >= ts.id {
			return fmt.Errorf("tombstones not strictly ascending at %d", i)
		}
		if until, ok := ref.tombstones[ts.id]; !ok || until != ts.until {
			return fmt.Errorf("tombstone %d until %d, reference %d (present %v)", ts.id, ts.until, until, ok)
		}
	}
	ids := ref.ids()
	if got := v.ids(); !slices.Equal(got, ids) {
		return fmt.Errorf("ids = %v, reference %v", got, ids)
	}
	if got, want := v.records(), ref.recordsOf(ids); !sameRecords(got, want) {
		return fmt.Errorf("records = %v, reference %v", got, want)
	}
	sub := f.ascendingIDs()
	if got, want := v.recordsOfInto(nil, sub), ref.recordsOf(sub); !sameRecords(got, want) {
		return fmt.Errorf("recordsOfInto(%v) = %v, reference %v", sub, got, want)
	}
	// Out-of-order ids still resolve, through seek's binary-search
	// fallback.
	f.r.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
	if got, want := v.recordsOfInto(nil, sub), ref.recordsOf(sub); !sameRecords(got, want) {
		return fmt.Errorf("recordsOfInto(%v) = %v, reference %v", sub, got, want)
	}
	for _, perFace := range []int{0, 1, 3} {
		if got, want := v.ranked(self, perFace), ref.ranked(self, perFace); !slices.Equal(got, want) {
			return fmt.Errorf("ranked(perFace=%d) = %v, reference %v", perFace, got, want)
		}
	}
	since := f.now - sim.Time(f.r.Intn(int(20*sim.Second)))
	if got, want := v.reciprocals(since), ref.reciprocals(since); !slices.Equal(got, want) {
		return fmt.Errorf("reciprocals(%d) = %v, reference %v", since, got, want)
	}
	if got, want := v.emptyFace(self), ref.emptyFace(self); got != want {
		return fmt.Errorf("emptyFace = %v, reference %v", got, want)
	}
	if got, want := v.uncoveredFace(self), ref.uncoveredFace(self); got != want {
		return fmt.Errorf("uncoveredFace = %v, reference %v", got, want)
	}
	return nil
}

// sameRecords compares record lists, treating nil and empty as equal.
func sameRecords(a, b []Record) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestViewMatchesReference pins the sorted-slice view to the map-based
// oracle over random operation sequences.
func TestViewMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		runViewDifferential(t, seed, 400)
	}
}

// FuzzViewMatchesReference runs the same differential with fuzz-chosen
// seeds and sequence lengths.
func FuzzViewMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, steps uint16) {
		runViewDifferential(t, seed, int(steps%2000))
	})
}

// TestFullTablesAscending runs churn under every scheme and checks, at
// every latency step, each table a host has built for sending (the
// heartbeat double buffer and the pooled replies) and each retained
// copy of one: all must be strictly ascending by id, the order
// receiveFull's merge walk is fast for.
func TestFullTablesAscending(t *testing.T) {
	for _, scheme := range []Scheme{Vanilla, Compact, Adaptive} {
		cfg := fastConfig(scheme)
		cfg.Seed = 3
		s := NewSim(3, cfg)
		churn := DefaultChurnConfig(40, 2*sim.Second)
		churn.Seed = 3
		NewChurnDriver(s, churn).Start()
		checked := 0
		check := func(where string, recs []Record) {
			for i := 1; i < len(recs); i++ {
				if recs[i-1].ID >= recs[i].ID {
					t.Fatalf("%v: %s not strictly ascending: %d then %d", scheme, where, recs[i-1].ID, recs[i].ID)
				}
			}
			checked++
		}
		for now := sim.Time(0); now < sim.Time(3*sim.Minute); now += sim.Time(cfg.Latency) {
			s.Eng.RunUntil(now)
			for _, h := range s.hosts {
				if h == nil {
					continue
				}
				check("heartbeat table", h.tableBuf[0])
				check("heartbeat table", h.tableBuf[1])
				for from, st := range h.lastTables {
					check(fmt.Sprintf("table retained from %d", from), st.recs)
				}
			}
			for _, b := range s.replyPool {
				check("reply table", b.recs)
			}
		}
		if checked == 0 {
			t.Fatalf("%v: no tables checked", scheme)
		}
	}
}

// TestViewHotPathAllocs pins the per-message view operations to zero
// allocations: refreshing an existing entry, directly or from a table,
// and building a table by id list.
func TestViewHotPathAllocs(t *testing.T) {
	v := newView()
	for id := can.NodeID(1); id <= 12; id++ {
		v.direct(Record{ID: id, Zone: zone2(0, 0, 0.5, 1)}, 0)
	}
	rec := Record{ID: 7, Zone: zone2(0.5, 0, 1, 1)}
	ids := []can.NodeID{2, 3, 5, 7, 11, 13}
	buf := make([]Record, 0, len(ids))
	for name, op := range map[string]func(){
		"direct":        func() { v.direct(rec, 10) },
		"indirect":      func() { v.indirect(rec, 10, 5) },
		"recordsOfInto": func() { buf = v.recordsOfInto(buf[:0], ids) },
	} {
		if avg := testing.AllocsPerRun(100, op); avg != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, avg)
		}
	}
}
