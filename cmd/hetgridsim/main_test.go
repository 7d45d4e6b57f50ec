package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	type flags struct {
		nodes, jobs, gpuslots        int
		arrival, constraint, gpufrac float64
	}
	def := flags{nodes: 1000, jobs: 20000, gpuslots: 2, arrival: 3, constraint: 0.8, gpufrac: 0.4}
	cases := []struct {
		name string
		edit func(*flags)
		want string // substring of the error; "" = accepted
	}{
		{"defaults", func(*flags) {}, ""},
		{"empty grid", func(f *flags) { f.nodes, f.jobs = 0, 0 }, ""},
		{"five gpu slots", func(f *flags) { f.gpuslots = 5 }, ""},
		{"ratio bounds", func(f *flags) { f.constraint, f.gpufrac = 0, 1 }, ""},
		{"negative nodes", func(f *flags) { f.nodes = -1 }, "-nodes"},
		{"negative jobs", func(f *flags) { f.jobs = -1 }, "-jobs"},
		{"negative gpu slots", func(f *flags) { f.gpuslots = -1 }, "-gpuslots"},
		{"zero arrival", func(f *flags) { f.arrival = 0 }, "-arrival"},
		{"negative arrival", func(f *flags) { f.arrival = -3 }, "-arrival"},
		{"NaN arrival", func(f *flags) { f.arrival = math.NaN() }, "-arrival"},
		{"constraint above 1", func(f *flags) { f.constraint = 1.5 }, "-constraint"},
		{"negative constraint", func(f *flags) { f.constraint = -0.1 }, "-constraint"},
		{"gpufrac above 1", func(f *flags) { f.gpufrac = 2 }, "-gpufrac"},
		{"NaN gpufrac", func(f *flags) { f.gpufrac = math.NaN() }, "-gpufrac"},
	}
	for _, tc := range cases {
		f := def
		tc.edit(&f)
		err := checkFlags(f.nodes, f.jobs, f.gpuslots, f.arrival, f.constraint, f.gpufrac)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}
