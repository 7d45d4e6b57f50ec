package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb builds protobuf messages for the fixed test profile.
type pb struct{ b []byte }

func (p *pb) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

func (p *pb) uint(num int, v uint64) {
	p.varint(uint64(num)<<3 | 0)
	p.varint(v)
}

func (p *pb) bytes(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.varint(v)
	}
	p.bytes(num, q.b)
}

// fixedProfile is a small CPU profile: functions 1..6, one location per
// function except location 7, which holds function 3 inlined into
// function 4 (innermost first). Samples carry [count, nanoseconds].
func fixedProfile(t *testing.T) []byte {
	names := []string{"", "hetgrid/internal/sched.(*CanHet).Place", "hetgrid/internal/can.zoneDistance",
		"runtime.mapaccess1_fast64", "hetgrid/internal/proto.(*Host).receiveFull",
		"runtime.gcBgMarkWorker", "runtime.scanobject"}
	var prof pb
	var st pb
	st.uint(1, 1) // sample_type: type string 1 — irrelevant to the folding
	prof.bytes(1, st.b)
	sample := func(count uint64, locs ...uint64) {
		var s pb
		s.packed(1, locs...)
		s.packed(2, count, count*10_000_000)
		prof.bytes(2, s.b)
	}
	sample(5, 1)    // flat in sched
	sample(3, 2, 1) // flat in can, called from sched
	sample(2, 7, 1) // map access inlined into proto, under sched
	sample(4, 6, 5) // GC worker scanning
	sample(1, 4)    // flat in proto
	for id := uint64(1); id <= 6; id++ {
		var loc, line pb
		loc.uint(1, id)
		line.uint(1, id)
		loc.bytes(4, line.b)
		prof.bytes(4, loc.b)
	}
	var loc7, inner, outer pb
	loc7.uint(1, 7)
	inner.uint(1, 3)
	outer.uint(1, 4)
	loc7.bytes(4, inner.b)
	loc7.bytes(4, outer.b)
	prof.bytes(4, loc7.b)
	for id := uint64(1); id <= 6; id++ {
		var fn pb
		fn.uint(1, id)
		fn.uint(2, id) // name = string index id
		prof.bytes(5, fn.b)
	}
	for _, s := range names {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldFixedProfile(t *testing.T) {
	samples, err := decodeProfile(fixedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("decoded %d samples, want 5", len(samples))
	}
	if got := samples[2].stack; len(got) != 3 || got[0] != "runtime.mapaccess1_fast64" || got[1] != "hetgrid/internal/proto.(*Host).receiveFull" {
		t.Fatalf("inlined stack = %q, want map access innermost, then proto, then sched", got)
	}
	shares, total := foldShares(samples)
	if total != 15 {
		t.Fatalf("total weight %d, want 15", total)
	}
	want := map[string]float64{"sched": 5.0 / 15, "can": 3.0 / 15, "maps": 2.0 / 15, "gc": 4.0 / 15, "proto": 1.0 / 15}
	for class, w := range want {
		if math.Abs(shares[class]-w) > 1e-12 {
			t.Errorf("share %s = %v, want %v", class, shares[class], w)
		}
	}
	if len(shares) != len(want) {
		t.Errorf("classes %v, want exactly %v", shares, want)
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	var p pb
	p.bytes(2, []byte{0x0a, 0x05, 0x01}) // sample whose location run claims 5 bytes but has 1
	if _, err := decodeProfile(p.b); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

// TestDecodeRuntimeProfile checks the decoder against a profile the
// runtime itself wrote.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	_ = x
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range samples {
		total += s.weight
		if len(s.stack) == 0 {
			t.Fatal("sample without a stack")
		}
	}
	if total == 0 {
		t.Fatal("no samples in a 300 ms busy loop")
	}
}
