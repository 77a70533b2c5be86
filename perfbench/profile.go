package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a pprof profile the benchmark reads: the
// sample types and, per sample, its call stack (leaf first, inlined
// frames expanded) and values.
type profile struct {
	types   []string
	samples []profSample
}

type profSample struct {
	stack  []string
	values []int64
}

// valueIndex returns the index of the named sample type ("cpu" in a
// CPU profile, "delay" in a mutex profile).
func (p *profile) valueIndex(name string) (int, error) {
	for i, t := range p.types {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q samples (types %v)", name, p.types)
}

// parseProfile decodes a pprof profile (profile.proto, optionally
// gzipped) — only the fields above, with no dependency beyond the
// standard library.
func parseProfile(data []byte) (*profile, error) {
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
		strs      []string
		typeIdx   []int64
		rawSamps  []rawSample
		locFuncs  = map[uint64][]uint64{} // location -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function -> string index
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			rawSamps = append(rawSamps, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, i := range typeIdx {
		p.types = append(p.types, str(i))
	}
	for _, rs := range rawSamps {
		s := profSample{values: rs.values}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(num, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// value per field (wire type 0) or packed (wire type 2).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// funcPackage returns the import path of a pprof function name:
// "intango/internal/netem.(*Simulator).Step" -> "intango/internal/netem".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold paths of their own
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// benchPackage is this package's import path, the name its functions
// carry in a test binary (a built command calls itself main).
const benchPackage = "intango/perfbench"

// moduleOf maps a function to its CPU bucket, or "" when the function
// belongs to no bucket of its own (the runtime and standard-library
// helpers, charged to the nearest caller that does).
func moduleOf(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case pkg == "math/rand":
		return "rand"
	case pkg == "main", pkg == benchPackage, pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "loadgen"
	case pkg == "intango/internal/device/uis":
		return "uis"
	case strings.HasPrefix(pkg, "intango/internal/"):
		mod := strings.TrimPrefix(pkg, "intango/internal/")
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
	}
	return ""
}

// gcFuncs mark a stack as garbage-collector work: the background mark
// workers, mark assists charged to allocating goroutines, and the
// sweeper and scavenger.
var gcFuncs = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.sweepone",
}

func hasFrame(stack []string, fns ...string) bool {
	for _, f := range stack {
		for _, want := range fns {
			if f == want {
				return true
			}
		}
	}
	return false
}

// attributeCPU partitions a CPU profile's time (ns) over cpuModules.
// A GC stack is charged to gc; any other sample to the bucket of the
// frame nearest its leaf that has one (so a runtime.mallocgc leaf under
// netem is netem's self time); a stack with no such frame to
// runtime_other. Every sample lands in exactly one bucket.
func attributeCPU(p *profile) (map[string]int64, error) {
	vi, err := p.valueIndex("cpu")
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(cpuModules))
	for _, m := range cpuModules {
		out[m] = 0
	}
	for _, s := range p.samples {
		out[bucketOf(s.stack)] += s.values[vi]
	}
	return out, nil
}

func bucketOf(stack []string) string {
	if hasFrame(stack, gcFuncs...) {
		return "gc"
	}
	for _, f := range stack {
		if m := moduleOf(f); m != "" {
			return m
		}
	}
	return "runtime_other"
}

// cumulativeCPU is the CPU time (ns) of samples whose stack contains
// any of fns — a function's inclusive cost, each sample counted once.
func cumulativeCPU(p *profile, fns ...string) (int64, error) {
	vi, err := p.valueIndex("cpu")
	if err != nil {
		return 0, err
	}
	var total int64
	for _, s := range p.samples {
		if hasFrame(s.stack, fns...) {
			total += s.values[vi]
		}
	}
	return total, nil
}

// lockWaits sums a mutex profile's delay (ns) by the lock it measures.
// The runtime charges contention to the stack that unlocked, so the
// first frame outside sync and the runtime names the critical section:
// a Proxy method is the intangd world lock, a uis method the stack
// lock. Other locks (pipe queues, the flow table's shards) go to
// "other".
func lockWaits(p *profile) (map[string]int64, error) {
	vi, err := p.valueIndex("delay")
	if err != nil {
		return nil, err
	}
	out := map[string]int64{"intangd.world": 0, "uis": 0, "other": 0}
	for _, s := range p.samples {
		out[lockOf(s.stack)] += s.values[vi]
	}
	return out, nil
}

func lockOf(stack []string) string {
	for _, f := range stack {
		pkg := funcPackage(f)
		if pkg == "sync" || pkg == "runtime" || strings.HasPrefix(pkg, "internal/") {
			continue
		}
		switch {
		case strings.HasPrefix(f, "intango/internal/intangd.(*Proxy)."):
			return "intangd.world"
		case pkg == "intango/internal/device/uis":
			return "uis"
		}
		return "other"
	}
	return "other"
}
