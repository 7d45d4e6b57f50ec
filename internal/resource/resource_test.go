package resource

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// testNode builds a node with a 4-core 2.0x CPU, 8 GB RAM, 500 GB disk,
// and the given extra accelerators.
func testNode(gpus ...CE) *NodeCaps {
	n := &NodeCaps{
		CEs:     append([]CE{{Type: TypeCPU, Clock: 2.0, Cores: 4, Memory: 8}}, gpus...),
		Disk:    500,
		Virtual: 0.5,
	}
	return n
}

func gpu(t CEType, clock float64, cores int, mem float64) CE {
	return CE{Type: t, Dedicated: true, Clock: clock, Cores: cores, Memory: mem}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	n := testNode(gpu(1, 1.2, 240, 4))
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadNodes(t *testing.T) {
	cases := []struct {
		name string
		node NodeCaps
	}{
		{"no CEs", NodeCaps{}},
		{"first not CPU", NodeCaps{CEs: []CE{{Type: 1, Dedicated: true, Clock: 1, Cores: 1}}}},
		{"dedicated CPU", NodeCaps{CEs: []CE{{Type: TypeCPU, Dedicated: true, Clock: 1, Cores: 1}}}},
		{"zero clock", NodeCaps{CEs: []CE{{Type: TypeCPU, Clock: 0, Cores: 1}}}},
		{"zero cores", NodeCaps{CEs: []CE{{Type: TypeCPU, Clock: 1, Cores: 0}}}},
		{"duplicate type", NodeCaps{CEs: []CE{
			{Type: TypeCPU, Clock: 1, Cores: 1},
			{Type: 1, Dedicated: true, Clock: 1, Cores: 1},
			{Type: 1, Dedicated: true, Clock: 1, Cores: 1}}}},
		{"out of order", NodeCaps{CEs: []CE{
			{Type: TypeCPU, Clock: 1, Cores: 1},
			{Type: 2, Dedicated: true, Clock: 1, Cores: 1},
			{Type: 1, Dedicated: true, Clock: 1, Cores: 1}}}},
		{"negative disk", NodeCaps{CEs: []CE{{Type: TypeCPU, Clock: 1, Cores: 1}}, Disk: -1}},
		{"virtual out of range", NodeCaps{CEs: []CE{{Type: TypeCPU, Clock: 1, Cores: 1}}, Virtual: 1}},
	}
	for _, c := range cases {
		if err := c.node.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid node", c.name)
		}
	}
}

func TestValidateAcceptsConcurrentGPU(t *testing.T) {
	// The paper's anticipated concurrent-kernel GPUs: a non-dedicated
	// accelerator is legal and shares cores like a CPU.
	n := NodeCaps{CEs: []CE{
		{Type: TypeCPU, Clock: 1, Cores: 2, Memory: 4},
		{Type: 1, Dedicated: false, Clock: 1.2, Cores: 240, Memory: 4},
	}, Disk: 100}
	if err := n.Validate(); err != nil {
		t.Fatalf("concurrent GPU rejected: %v", err)
	}
}

func TestCELookup(t *testing.T) {
	n := testNode(gpu(2, 1.0, 128, 2))
	if n.CPU() == nil || n.CPU().Type != TypeCPU {
		t.Fatal("CPU lookup failed")
	}
	if n.CE(2) == nil || n.CE(2).Cores != 128 {
		t.Fatal("GPU lookup failed")
	}
	if n.CE(1) != nil {
		t.Fatal("lookup of absent CE type returned non-nil")
	}
}

func TestSatisfiesCPUOnly(t *testing.T) {
	n := testNode()
	ok := JobReq{CE: []CENeed{{Type: TypeCPU, CEReq: CEReq{Clock: 1.5, Memory: 4, Cores: 2}}}}
	if !Satisfies(n, ok) {
		t.Fatal("satisfiable requirement rejected")
	}
	tooFast := JobReq{CE: []CENeed{{Type: TypeCPU, CEReq: CEReq{Clock: 2.5}}}}
	if Satisfies(n, tooFast) {
		t.Fatal("clock requirement above capability accepted")
	}
	tooManyCores := JobReq{CE: []CENeed{{Type: TypeCPU, CEReq: CEReq{Cores: 8}}}}
	if Satisfies(n, tooManyCores) {
		t.Fatal("core requirement above capability accepted")
	}
	tooMuchMem := JobReq{CE: []CENeed{{Type: TypeCPU, CEReq: CEReq{Memory: 16}}}}
	if Satisfies(n, tooMuchMem) {
		t.Fatal("memory requirement above capability accepted")
	}
}

func TestSatisfiesDisk(t *testing.T) {
	n := testNode()
	if !Satisfies(n, JobReq{Disk: 500}) {
		t.Fatal("exact disk requirement rejected")
	}
	if Satisfies(n, JobReq{Disk: 501}) {
		t.Fatal("excess disk requirement accepted")
	}
}

func TestSatisfiesMissingGPU(t *testing.T) {
	n := testNode() // no GPU
	req := JobReq{CE: []CENeed{{Type: 1, CEReq: CEReq{Clock: 0.5}}}}
	if Satisfies(n, req) {
		t.Fatal("node without the required CE type accepted")
	}
	withGPU := testNode(gpu(1, 1.0, 240, 4))
	if !Satisfies(withGPU, req) {
		t.Fatal("node with the required CE type rejected")
	}
}

func TestSatisfiesEmptyRequirementMatchesAnything(t *testing.T) {
	if !Satisfies(testNode(), JobReq{}) {
		t.Fatal("empty requirement must match any node")
	}
}

func TestCoresOnDefaultsToOne(t *testing.T) {
	r := JobReq{CE: []CENeed{{Type: TypeCPU, CEReq: CEReq{Clock: 1.0}}}}
	if r.CoresOn(TypeCPU) != 1 {
		t.Fatal("a required CE must occupy at least one core")
	}
	if r.CoresOn(1) != 0 {
		t.Fatal("an unrequired CE must occupy zero cores")
	}
	r2 := JobReq{CE: []CENeed{{Type: TypeCPU, CEReq: CEReq{Cores: 3}}}}
	if r2.CoresOn(TypeCPU) != 3 {
		t.Fatal("explicit core requirement ignored")
	}
}

func TestDominantCECUDAExample(t *testing.T) {
	// The paper's CUDA example: the job needs a CPU (1 core, control
	// thread) and a GPU (many cores, most of the memory demand). The
	// GPU must dominate.
	r := JobReq{CE: []CENeed{
		{Type: TypeCPU, CEReq: CEReq{Cores: 1, Memory: 1}},
		{Type: 1, CEReq: CEReq{Cores: 128, Memory: 2}},
	}}
	if got := DominantCE(r); got != 1 {
		t.Fatalf("DominantCE = %v, want gpu1", got)
	}
}

func TestDominantCECPUHeavyJob(t *testing.T) {
	r := JobReq{CE: []CENeed{
		{Type: TypeCPU, CEReq: CEReq{Cores: 8, Memory: 16}},
		{Type: 1, CEReq: CEReq{Cores: 1, Memory: 0.1}},
	}}
	if got := DominantCE(r); got != TypeCPU {
		t.Fatalf("DominantCE = %v, want cpu", got)
	}
}

func TestDominantCEDefaultsToCPU(t *testing.T) {
	if got := DominantCE(JobReq{}); got != TypeCPU {
		t.Fatalf("DominantCE of empty req = %v, want cpu", got)
	}
}

func TestDominantCETieGoesToAccelerator(t *testing.T) {
	// Equal absolute demand on both CEs: the accelerator wins.
	r := JobReq{CE: []CENeed{
		{Type: TypeCPU, CEReq: CEReq{Cores: 4, Memory: 2}},
		{Type: 1, CEReq: CEReq{Cores: 4, Memory: 2}},
	}}
	if got := DominantCE(r); got != 1 {
		t.Fatalf("DominantCE tie = %v, want gpu1", got)
	}
}

func TestScoreDedicated(t *testing.T) {
	if got := ScoreDedicated(4, 2.0); got != 2.0 {
		t.Fatalf("ScoreDedicated(4, 2.0) = %v, want 2", got)
	}
	// Faster clock gives lower (better) score for equal queues.
	if ScoreDedicated(3, 2.0) >= ScoreDedicated(3, 1.0) {
		t.Fatal("dedicated score must prefer faster clocks")
	}
}

func TestScoreNonDedicated(t *testing.T) {
	// 4 required cores on an 8-core 2.0x CPU: utilization 0.5, score 0.25.
	if got := ScoreNonDedicated(4, 8, 2.0); got != 0.25 {
		t.Fatalf("ScoreNonDedicated = %v, want 0.25", got)
	}
	if ScoreNonDedicated(4, 8, 2.0) >= ScoreNonDedicated(4, 4, 2.0) {
		t.Fatal("more cores must lower the utilization score")
	}
}

func TestPushObjective(t *testing.T) {
	// Equation 3: SumRequiredCores / NumberOfCores².
	if got := PushObjective(8, 4); got != 0.5 {
		t.Fatalf("PushObjective(8,4) = %v, want 0.5", got)
	}
	if got := PushObjective(5, 0); got < 1e17 {
		t.Fatalf("PushObjective with zero cores = %v, want huge", got)
	}
	// A region with more cores and less demand scores lower.
	if PushObjective(2, 16) >= PushObjective(8, 4) {
		t.Fatal("push objective ordering wrong")
	}
}

func TestStopProbability(t *testing.T) {
	if got := StopProbability(0, 2); got != 1 {
		t.Fatalf("StopProbability(0,2) = %v, want 1 (nowhere further to go)", got)
	}
	if got := StopProbability(3, 2); math.Abs(got-1.0/16) > 1e-12 {
		t.Fatalf("StopProbability(3,2) = %v, want 1/16", got)
	}
	if got := StopProbability(-5, 2); got != 1 {
		t.Fatalf("negative count must clamp to 0, got %v", got)
	}
	// Property: more nodes beyond means lower stop probability.
	f := func(a, b uint8) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return StopProbability(y, 2) <= StopProbability(x, 2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJobReqClone(t *testing.T) {
	r := JobReq{CE: []CENeed{{Type: TypeCPU, CEReq: CEReq{Cores: 2}}}, Disk: 10}
	c := r.Clone()
	c.Set(TypeCPU, CEReq{Cores: 9})
	c.Set(1, CEReq{Cores: 1})
	if r.CE[0].Cores != 2 || len(r.CE) != 1 {
		t.Fatal("Clone shares the CE slice")
	}
}

func TestTypesSorted(t *testing.T) {
	var r JobReq
	r.Set(2, CEReq{})
	r.Set(TypeCPU, CEReq{})
	r.Set(1, CEReq{})
	ts := r.Types()
	if len(ts) != 3 || ts[0] != 0 || ts[1] != 1 || ts[2] != 2 {
		t.Fatalf("Types = %v, want [0 1 2]", ts)
	}
}

func TestSetKeepsRequirementsSorted(t *testing.T) {
	var r JobReq
	r.Set(2, CEReq{Cores: 32})
	r.Set(TypeCPU, CEReq{Clock: 1.5})
	r.Set(4, CEReq{})
	r.Set(1, CEReq{Memory: 2})
	r.Set(2, CEReq{Cores: 64}) // replaces, does not duplicate
	want := []CENeed{
		{Type: TypeCPU, CEReq: CEReq{Clock: 1.5}},
		{Type: 1, CEReq: CEReq{Memory: 2}},
		{Type: 2, CEReq: CEReq{Cores: 64}},
		{Type: 4},
	}
	if len(r.CE) != len(want) {
		t.Fatalf("CE = %v, want %v", r.CE, want)
	}
	for i := range want {
		if r.CE[i] != want[i] {
			t.Fatalf("CE = %v, want %v", r.CE, want)
		}
	}
	// A zero requirement still names the type: it needs one core.
	if q, ok := r.Need(4); !ok || q != (CEReq{}) || r.CoresOn(4) != 1 {
		t.Fatalf("zero requirement on type 4: Need = %v, %v; CoresOn = %d", q, ok, r.CoresOn(4))
	}
	if _, ok := r.Need(3); ok {
		t.Fatal("Need reports an unset type")
	}
}

// mapReq is the requirement map JobReq.CE used to be. The ref*
// functions below are the map-based semantics the sorted slice keeps.
type mapReq map[CEType]CEReq

func (m mapReq) coresOn(t CEType) int {
	q, ok := m[t]
	if !ok {
		return 0
	}
	if q.Cores < 1 {
		return 1
	}
	return q.Cores
}

func (m mapReq) types() []CEType {
	ts := make([]CEType, 0, len(m))
	for t := range m {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

func refSatisfies(n *NodeCaps, m mapReq, disk float64) bool {
	if n.Disk < disk {
		return false
	}
	for t, q := range m {
		ce := n.CE(t)
		if ce == nil || ce.Clock < q.Clock || ce.Memory < q.Memory || ce.Cores < m.coresOn(t) {
			return false
		}
	}
	return true
}

func refDominant(m mapReq) CEType {
	if len(m) == 0 {
		return TypeCPU
	}
	best, bestScore := CEType(-1), -1.0
	for _, t := range m.types() {
		score := m[t].Memory + float64(m.coresOn(t))
		if score > bestScore || (score == bestScore && t > best) {
			best, bestScore = t, score
		}
	}
	return best
}

// TestRequirementVectorMatchesMapSemantics builds each requirement both
// ways — Set calls in the listed order, and the same assignments into a
// map — and requires every accessor and Satisfies to agree on a node
// set covering missing, undersized and oversized CEs.
func TestRequirementVectorMatchesMapSemantics(t *testing.T) {
	type set struct {
		t CEType
		q CEReq
	}
	cases := []struct {
		name string
		sets []set
		disk float64
	}{
		{"empty", nil, 0},
		{"disk only", nil, 300},
		{"cpu", []set{{TypeCPU, CEReq{Clock: 1.5, Memory: 4, Cores: 2}}}, 0},
		{"zero cpu", []set{{TypeCPU, CEReq{}}}, 0},
		{"cuda", []set{{1, CEReq{Cores: 128, Memory: 2}}, {TypeCPU, CEReq{Cores: 1, Memory: 1}}}, 50},
		{"cpu heavy", []set{{TypeCPU, CEReq{Cores: 8, Memory: 16}}, {1, CEReq{Cores: 1, Memory: 0.1}}}, 0},
		{"tie", []set{{1, CEReq{Cores: 4, Memory: 2}}, {TypeCPU, CEReq{Cores: 4, Memory: 2}}}, 0},
		{"overwrite", []set{{TypeCPU, CEReq{Cores: 8}}, {2, CEReq{}}, {TypeCPU, CEReq{Cores: 2}}}, 0},
		{"gpu only", []set{{2, CEReq{Clock: 0.9, Cores: 240}}}, 0},
		{"two gpus", []set{{3, CEReq{Memory: 1}}, {1, CEReq{Memory: 1}}, {TypeCPU, CEReq{}}}, 0},
		{"slot past node", []set{{TypeCPU, CEReq{Cores: 1}}, {5, CEReq{Cores: 1}}}, 0},
	}
	nodes := []*NodeCaps{
		testNode(),
		testNode(gpu(1, 1.2, 240, 4)),
		testNode(gpu(2, 1.0, 128, 2)),
		testNode(gpu(1, 0.6, 64, 1), gpu(2, 1.2, 512, 6), gpu(3, 0.9, 240, 4)),
		testNode(gpu(5, 1.0, 32, 1)),
		{CEs: []CE{{Type: TypeCPU, Clock: 4, Cores: 16, Memory: 32}}, Disk: 1000},
	}
	for _, c := range cases {
		var r JobReq
		m := mapReq{}
		for _, s := range c.sets {
			r.Set(s.t, s.q)
			m[s.t] = s.q
		}
		r.Disk = c.disk
		for ty := CEType(-1); ty <= 6; ty++ {
			q, ok := r.Need(ty)
			mq, mok := m[ty]
			if q != mq || ok != mok {
				t.Errorf("%s: Need(%v) = %v, %v; map says %v, %v", c.name, ty, q, ok, mq, mok)
			}
			if got, want := r.CoresOn(ty), m.coresOn(ty); got != want {
				t.Errorf("%s: CoresOn(%v) = %d, want %d", c.name, ty, got, want)
			}
		}
		if got, want := fmt.Sprint(r.Types()), fmt.Sprint(m.types()); got != want {
			t.Errorf("%s: Types = %s, want %s", c.name, got, want)
		}
		if got, want := DominantCE(r), refDominant(m); got != want {
			t.Errorf("%s: DominantCE = %v, want %v", c.name, got, want)
		}
		for i, n := range nodes {
			if got, want := Satisfies(n, r), refSatisfies(n, m, c.disk); got != want {
				t.Errorf("%s: Satisfies(node %d) = %v, want %v", c.name, i, got, want)
			}
		}
	}
}

func TestSatisfiesDoesNotAllocate(t *testing.T) {
	n := testNode(gpu(1, 1.2, 240, 4), gpu(2, 1.0, 128, 2))
	var r JobReq
	r.Set(TypeCPU, CEReq{Cores: 1})
	r.Set(2, CEReq{Cores: 64})
	ok := true
	if avg := testing.AllocsPerRun(100, func() { ok = Satisfies(n, r) && ok }); avg != 0 {
		t.Fatalf("Satisfies allocates %v times per call", avg)
	}
	if !ok {
		t.Fatal("satisfiable requirement rejected")
	}
}

func TestCETypeString(t *testing.T) {
	if TypeCPU.String() != "cpu" || CEType(2).String() != "gpu2" {
		t.Fatal("CEType.String wrong")
	}
}
