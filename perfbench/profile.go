package main

// A small decoder for the gzipped protobuf profiles runtime/pprof
// writes, and the folding of flat CPU samples into per-module shares.
// Only the fields the folding needs are decoded: samples (location ids
// and values), locations (their inlined line chains) and function
// names.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profSample is one decoded sample: its stack, innermost function
// first (inlined frames expanded), and its weight.
type profSample struct {
	stack  []string
	weight int64
}

// decodeProfile parses a gzipped (or raw) profile.proto message.
func decodeProfile(data []byte) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					for _, x := range appendPacked(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{}
		if len(s.values) > 0 {
			ps.weight = s.values[0]
		}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				name := ""
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				ps.stack = append(ps.stack, name)
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated message")

// eachField walks one protobuf message, calling f with each field's
// number, wire type and value (varints in v, length-delimited bytes in
// b). Fixed-width fields are skipped.
func eachField(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked
// (one varint) or packed (a length-delimited run of varints).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// uvarint decodes a varint; n == 0 reports malformed input.
func uvarint(b []byte) (v uint64, n int) {
	for i, c := range b {
		if i == 10 {
			return 0, 0
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// cpuClasses are the shares the traced run reports, as cpu.<class>.
var cpuClasses = []string{"can", "geom", "exec", "sched", "resource", "sim", "heap", "netsim", "proto", "scenario", "gc", "maps"}

// gcRoots are runtime functions under which a sample is garbage
// collector work, whatever its leaf.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.wbBufFlush":     true,
}

// classify names the class a sample's flat time belongs to: gc when
// the garbage collector is on its stack, otherwise the module of its
// innermost function.
func classify(stack []string) string {
	for _, fn := range stack {
		if gcRoots[fn] {
			return "gc"
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	switch {
	case strings.HasPrefix(leaf, "hetgrid/internal/"):
		pkg := leaf[len("hetgrid/internal/"):]
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		return pkg
	case strings.HasPrefix(leaf, "container/heap."):
		return "heap"
	case strings.HasPrefix(leaf, "runtime.map"), strings.HasPrefix(leaf, "internal/runtime/maps."):
		return "maps"
	case strings.HasPrefix(leaf, "runtime.gcWriteBarrier"):
		return "gc"
	}
	return "other"
}

// foldShares returns each class's share of the profile's total weight
// and that total.
func foldShares(samples []profSample) (map[string]float64, int64) {
	weights := map[string]int64{}
	var total int64
	for _, s := range samples {
		weights[classify(s.stack)] += s.weight
		total += s.weight
	}
	shares := map[string]float64{}
	for c, w := range weights {
		if total > 0 {
			shares[c] = float64(w) / float64(total)
		}
	}
	return shares, total
}
