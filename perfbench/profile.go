package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layers a CPU-profile sample of System.Run is attributed to.
const (
	layerPlace   = "place"   // sched.Scheduler.Place, with the cost kernel and NoC lookups it makes
	layerMem     = "mem"     // the ndp memory path: prefetch, fetch/write, L1, Traveller, DRAM, NoC
	layerApps    = "apps"    // App callbacks, including input generation in Setup
	layerQueue   = "queue"   // the sim event queue itself
	layerRuntime = "runtime" // GC and allocation
	layerGlue    = "glue"    // remaining ndp runtime code
)

// gcFrames mark a sample as garbage-collection or allocation work. They
// take precedence over every other layer: allocation cost belongs to the
// runtime whichever layer asked for the memory.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination",
}

// gcRoots are background GC goroutines, which have no System.Run frame but
// are part of the cost of running it.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

const runFrame = "abndp/internal/ndp.(*System).Run"

var memFrames = []string{
	"abndp/internal/ndp.(*System).issuePrefetch", "abndp/internal/ndp.(*System).fetchLine",
	"abndp/internal/ndp.(*System).transfer", "abndp/internal/ndp.(*System).writeLine",
	"abndp/internal/ndp.(*System).dramAccess", "abndp/internal/ndp.(*System).chargeMsg",
	"abndp/internal/ndp.(*System).portInject", "abndp/internal/ndp.(*System).fromHome",
	"abndp/internal/ndp.(*System).probeRemainingCamps", "abndp/internal/ndp.(*System).sramTouch",
}

var memPkgs = []string{"abndp/internal/cache.", "abndp/internal/dram.", "abndp/internal/traveller.", "abndp/internal/noc."}

var appPkgs = []string{"abndp/internal/apps.", "abndp/internal/graph.", "abndp/internal/dataset.", "main.(*tracedApp)"}

func hasPrefixAny(s string, ps []string) bool {
	for _, p := range ps {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func isAny(s string, set []string) bool {
	for _, v := range set {
		if s == v {
			return true
		}
	}
	return false
}

// classify attributes one sample, given its stack from the root (outermost
// frame) to the leaf, to a layer. It returns "" for samples outside
// System.Run and its garbage collection. Within System.Run the outermost
// frame of the placement, memory or app layer wins, so a NoC lookup made
// by the placement kernel counts as placement; a sample with none of them
// belongs to the event queue when its innermost abndp frame is in package
// sim, and to the ndp glue otherwise.
func classify(stack []string) string {
	inRun, gc, gcRoot := false, false, false
	for _, f := range stack {
		inRun = inRun || f == runFrame
		gc = gc || isAny(f, gcFrames)
		gcRoot = gcRoot || isAny(f, gcRoots)
	}
	switch {
	case gcRoot || (gc && inRun):
		return layerRuntime
	case !inRun:
		return ""
	}
	for _, f := range stack {
		switch {
		case f == "abndp/internal/sched.(*Scheduler).Place":
			return layerPlace
		case isAny(f, memFrames) || hasPrefixAny(f, memPkgs):
			return layerMem
		case hasPrefixAny(f, appPkgs):
			return layerApps
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if strings.HasPrefix(stack[i], "abndp/") {
			if strings.HasPrefix(stack[i], "abndp/internal/sim.") {
				return layerQueue
			}
			break
		}
	}
	return layerGlue
}

// layerTimes parses a gzipped pprof CPU profile and sums the sampled CPU
// nanoseconds of each layer (see classify).
func layerTimes(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		// Locations run leaf first; within a location, inlined lines run
		// innermost first. Build the stack root first.
		for i := len(s.locs) - 1; i >= 0; i-- {
			fns := p.locFuncs[s.locs[i]]
			for j := len(fns) - 1; j >= 0; j-- {
				stack = append(stack, p.strings[p.funcName[fns[j]]])
			}
		}
		if l := classify(stack); l != "" {
			out[l] += s.value
		}
	}
	return out, nil
}

// profile is the part of the pprof protobuf encoding classify needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

// parseProfile decodes the profile.proto fields Profile.sample (2),
// Profile.location (4), Profile.function (5) and Profile.string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s profSample
			err := eachField(sub, func(n int, v uint64, sb []byte) error {
				switch n {
				case 1:
					if sb != nil {
						return eachVarint(sb, func(x uint64) { s.locs = append(s.locs, x) })
					}
					s.locs = append(s.locs, v)
				case 2:
					if sb != nil {
						return eachVarint(sb, func(x uint64) { s.value = int64(x) })
					}
					s.value = int64(v)
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(n int, v uint64, sb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(sb, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("cpu profile: function name out of the string table")
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

func varint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// eachField walks the fields of one protobuf message. Varint fields pass
// their value; length-delimited fields pass their bytes (non-nil, possibly
// empty). Fixed-width fields are skipped.
func eachField(b []byte, f func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n, err := varint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n, err := varint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n, err := varint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return errTruncated
			}
			if err := f(num, 0, b[:l:l]); err != nil {
				return err
			}
			b = b[l:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// eachVarint walks a packed repeated varint field.
func eachVarint(b []byte, f func(uint64)) error {
	for len(b) > 0 {
		v, n, err := varint(b)
		if err != nil {
			return err
		}
		f(v)
		b = b[n:]
	}
	return nil
}
