package main

// In-memory span recorder. The benchmark opens a span around each call
// it makes into a module; spans nest by call order on the single
// goroutine that drives the simulation, so a span's parent is the span
// open when it began. Spans are written out after the run.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type span struct {
	name   string
	start  int64 // ns since the recorder's origin
	end    int64
	parent int32 // index of the enclosing span, -1 at top level
	job    int64 // job id, -1 when the span serves no single job
	count  int64 // work the span covered (events fired in a slice), 0 if unrecorded
}

type recorder struct {
	origin time.Time
	spans  []span
	open   []int32
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) begin(name string, job int64) int32 {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, parent: parent, job: job, start: int64(time.Since(r.origin))})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int32) {
	r.spans[id].end = int64(time.Since(r.origin))
	r.open = r.open[:len(r.open)-1]
}

// spanStats summarizes every span of one name.
type spanStats struct {
	n     int
	total time.Duration
	self  time.Duration // total minus the time child spans cover
	durs  []float64     // seconds, one per span
}

// stats summarizes the recorded spans by name.
func (r *recorder) stats() map[string]*spanStats {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*spanStats{}
	for i, s := range r.spans {
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		d := s.end - s.start
		st.n++
		st.total += time.Duration(d)
		st.self += time.Duration(d - child[i])
		st.durs = append(st.durs, float64(d)/1e9)
	}
	return out
}

// get returns the named summary, empty when no such span was recorded.
func get(st map[string]*spanStats, name string) *spanStats {
	if s := st[name]; s != nil {
		return s
	}
	return &spanStats{}
}

// write stores the spans as JSON lines in path.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i, s := range r.spans {
		fmt.Fprintf(bw, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"job":%d,"count":%d}`+"\n",
			i, s.name, s.start, s.end, s.parent, s.job, s.count)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
