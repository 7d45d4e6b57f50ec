package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	type flags struct {
		nodes, jobs, gpuslots, seeds                          int
		arrival, constraint, gpufrac, sf, gamma, metricsEvery float64
	}
	def := flags{nodes: 1000, jobs: 20000, gpuslots: 2, seeds: 1, arrival: 3, constraint: 0.8, gpufrac: 0.4, sf: 2, gamma: 0.3, metricsEvery: 60}
	cases := []struct {
		name string
		edit func(*flags)
		want string // substring of the error; "" = accepted
	}{
		{"defaults", func(*flags) {}, ""},
		{"empty grid", func(f *flags) { f.nodes, f.jobs = 0, 0 }, ""},
		{"three gpu slots", func(f *flags) { f.gpuslots = 3 }, ""},
		{"four gpu slots", func(f *flags) { f.gpuslots = 4 }, "-gpuslots"},
		{"nine gpu slots", func(f *flags) { f.gpuslots = 9 }, "-gpuslots"},
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
		{"sweep bounds", func(f *flags) { f.sf, f.gamma = 0.5, 0 }, ""},
		{"large sf and gamma", func(f *flags) { f.sf, f.gamma = 8, 1 }, ""},
		{"negative sf", func(f *flags) { f.sf = -1 }, "-sf"},
		{"NaN sf", func(f *flags) { f.sf = math.NaN() }, "-sf"},
		{"infinite sf", func(f *flags) { f.sf = math.Inf(1) }, "-sf"},
		{"negative gamma", func(f *flags) { f.gamma = -5 }, "-gamma"},
		{"NaN gamma", func(f *flags) { f.gamma = math.NaN() }, "-gamma"},
		{"infinite gamma", func(f *flags) { f.gamma = math.Inf(1) }, "-gamma"},
		{"many seeds", func(f *flags) { f.seeds = 8 }, ""},
		{"zero seeds", func(f *flags) { f.seeds = 0 }, "-seeds"},
		{"negative seeds", func(f *flags) { f.seeds = -2 }, "-seeds"},
		{"fine interval", func(f *flags) { f.metricsEvery = 0.5 }, ""},
		{"zero interval", func(f *flags) { f.metricsEvery = 0 }, "-metrics-interval"},
		{"negative interval", func(f *flags) { f.metricsEvery = -60 }, "-metrics-interval"},
		{"NaN interval", func(f *flags) { f.metricsEvery = math.NaN() }, "-metrics-interval"},
		{"infinite interval", func(f *flags) { f.metricsEvery = math.Inf(1) }, "-metrics-interval"},
		{"overflowing interval", func(f *flags) { f.metricsEvery = 1e300 }, "-metrics-interval"},
		{"sub-tick interval", func(f *flags) { f.metricsEvery = 1e-12 }, "-metrics-interval"},
	}
	for _, tc := range cases {
		f := def
		tc.edit(&f)
		err := checkFlags(f.nodes, f.jobs, f.gpuslots, f.seeds, f.arrival, f.constraint, f.gpufrac, f.sf, f.gamma, f.metricsEvery)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}

func TestCheckRunFlags(t *testing.T) {
	cases := []struct {
		name            string
		shards, workers int
		metricsEvery    float64
		want            string // substring of the error; "" = accepted
	}{
		{"defaults", 0, 0, 60, ""},
		{"overrides", 4, 2, 10, ""},
		{"negative shards", -1, 0, 60, "-shards"},
		{"negative workers", 0, -3, 60, "-workers"},
		{"zero interval", 0, 0, 0, "-metrics-interval"},
		{"negative interval", 0, 0, -1, "-metrics-interval"},
		{"NaN interval", 0, 0, math.NaN(), "-metrics-interval"},
		{"infinite interval", 0, 0, math.Inf(1), "-metrics-interval"},
	}
	for _, tc := range cases {
		err := checkRunFlags(tc.shards, tc.workers, tc.metricsEvery)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}
