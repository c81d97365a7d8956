package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a pprof CPU profile the benchmark reads: each
// sample's stack as function names, innermost frame first, and its count.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	frames []string
	count  int64
}

// parseProfile decodes a gzipped profile.proto as written by
// runtime/pprof.StartCPUProfile.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples []rawSample
		strs    []string
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id -> name string index
	)
	err = walkFields(raw, func(field int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := walkFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, d)
				case 2:
					return appendVarints(&s.vals, v, d)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(d, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walkFields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.vals) == 0 {
			return nil, errors.New("cpu profile: sample without values")
		}
		ps := profSample{count: int64(s.vals[0])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				idx := funcs[f]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("cpu profile: function name index %d out of range", idx)
				}
				ps.frames = append(ps.frames, strs[idx])
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// walkFields calls fn for each field of a protobuf message: v carries a
// varint's value, data a length-delimited field's bytes.
func walkFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length-delimited field")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// unpacked value (data == nil) or a packed run.
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// Buckets the CPU profile is split into. A sample belongs to the bucket of
// its innermost frame that belongs to a layer; a sample with no layer frame
// (scheduler, idle, syscalls) is "other".
const (
	bucketGen       = "gen"
	bucketParse     = "parse"
	bucketUserFn    = "user_fn"
	bucketSort      = "sort"
	bucketMerge     = "merge"
	bucketCodec     = "codec"
	bucketHashState = "hash_state"
	bucketIncr      = "incr"
	bucketSim       = "sim"
	bucketGC        = "gc"
	bucketFramework = "framework"
	bucketBench     = "bench"
	bucketOther     = "other"
)

var bucketNames = []string{
	bucketGen, bucketParse, bucketUserFn, bucketSort, bucketMerge, bucketCodec, bucketHashState,
	bucketIncr, bucketSim, bucketGC, bucketFramework, bucketBench, bucketOther,
}

// inherit marks a frame that belongs to no layer of its own, such as a
// comparison helper both sort and merge call: the sample goes to the next
// layer frame out.
const inherit = ""

// pkgLayer assigns a package's frames to buckets. A function rule names a
// symbol without its package: "F" matches F and its closures and methods
// (F.func1, F.x), and "F*" matches every symbol starting with F. Rules of
// one package must not overlap; a frame matching none gets the package's
// default bucket.
type pkgLayer struct {
	pkg   string
	def   string
	funcs map[string]string
}

// layerTable is the benchmark's map from the repository's modules to
// profile buckets.
var layerTable = []pkgLayer{
	{pkg: "onepass/internal/gen", def: bucketGen},
	{pkg: "onepass/internal/textfmt", def: bucketParse},
	{pkg: "onepass/internal/workloads", def: bucketUserFn, funcs: map[string]string{
		"LineReader":        bucketParse,
		"BinaryClickReader": bucketParse,
		"PairReader":        bucketParse,
		"parseClick":        bucketParse,
	}},
	{pkg: "onepass/internal/kv", def: bucketCodec, funcs: map[string]string{
		"(*Buffer).SortByPartitionKey": bucketSort,
		"MergeStreams":                 bucketMerge,
		"GroupSorted":                  bucketMerge,
		"(*Grouper)":                   bucketMerge,
		"(*SliceStream)":               bucketMerge,
		"(*RangeStream)":               bucketMerge,
		"Compare":                      inherit,
		"NewBuffer":                    inherit,
		"(*Buffer).Add":                inherit,
		"(*Buffer).Len":                inherit,
		"(*Buffer).Key":                inherit,
		"(*Buffer).Val":                inherit,
		"(*Buffer).Partition":          inherit,
		"(*Buffer).Reset":              inherit,
		"IsCommutative":                inherit,
	}},
	{pkg: "onepass/internal/sortmerge", def: bucketMerge},
	{pkg: "onepass/internal/hadoop", def: bucketMerge},
	{pkg: "onepass/internal/hop", def: bucketMerge},
	{pkg: "onepass/internal/core", def: bucketHashState},
	{pkg: "onepass/internal/memtable", def: bucketHashState},
	{pkg: "onepass/internal/hashlib", def: bucketHashState},
	{pkg: "onepass/internal/sketch", def: bucketHashState},
	{pkg: "onepass/internal/resident", def: bucketHashState},
	{pkg: "onepass/internal/incr", def: bucketIncr},
	// The root package is the API (framework) plus delta.go, the preserved
	// state layer of incremental re-runs.
	{pkg: "onepass", def: bucketFramework, funcs: map[string]string{
		"RunDelta":         bucketIncr,
		"DeltaDataset":     bucketIncr,
		"baseBlockSize":    bucketIncr,
		"deltaCapable":     bucketIncr,
		"monoidKey":        bucketIncr,
		"runMerge":         bucketIncr,
		"publishState":     bucketIncr,
		"tagBlock":         bucketIncr,
		"cutTag":           bucketIncr,
		"captureJob":       bucketIncr,
		"frameListReducer": bucketIncr,
		"parseCapture":     bucketIncr,
		"mergeJob":         bucketIncr,
		"pairRecordReader": bucketIncr,
		"pairForwardMap":   bucketIncr,
		"mergeReducer":     bucketIncr,
	}},
	{pkg: "onepass/internal/engine", def: bucketFramework},
	{pkg: "onepass/internal/metrics", def: bucketFramework},
	{pkg: "onepass/internal/trace", def: bucketFramework},
	{pkg: "onepass/internal/faults", def: bucketFramework},
	{pkg: "onepass/internal/sim", def: bucketSim},
	{pkg: "onepass/internal/cluster", def: bucketSim},
	{pkg: "onepass/internal/disk", def: bucketSim},
	{pkg: "onepass/internal/netsim", def: bucketSim},
	{pkg: "onepass/internal/dfs", def: bucketSim},
	// The Go runtime is a layer only through its collector and allocator.
	{pkg: "runtime", def: inherit, funcs: map[string]string{
		"gc*":                  bucketGC,
		"mallocgc*":            bucketGC,
		"scanobject":           bucketGC,
		"scanblock":            bucketGC,
		"scanstack":            bucketGC,
		"scanframeworker":      bucketGC,
		"greyobject":           bucketGC,
		"markroot*":            bucketGC,
		"findObject":           bucketGC,
		"sweepone":             bucketGC,
		"bgsweep":              bucketGC,
		"bgscavenge":           bucketGC,
		"wbBuf*":               bucketGC,
		"bulkBarrierPreWrite*": bucketGC,
		"heapSetType*":         bucketGC,
		"(*gcWork)":            bucketGC,
		"(*gcControllerState)": bucketGC,
		"(*gcBits)":            bucketGC,
		"(*mheap)":             bucketGC,
		"(*mcentral)":          bucketGC,
		"(*mcache)":            bucketGC,
		"(*mspan)":             bucketGC,
		"(*sweepLocked)":       bucketGC,
		"(*pageAlloc)":         bucketGC,
		"(*scavengerState)":    bucketGC,
		"(*markBits)":          bucketGC,
	}},
	// The benchmark's own frames: tracing wrappers and the harness, under
	// the package path of the command and of its test binary.
	{pkg: "main", def: bucketBench},
	{pkg: "onepass/perfbench", def: bucketBench},
}

// splitSymbol splits a Go function symbol into its package path and the
// rest ("onepass/internal/kv.(*Buffer).Add" -> "onepass/internal/kv",
// "(*Buffer).Add"). Type arguments are dropped first, since they may hold
// dots and slashes of their own.
func splitSymbol(name string) (pkg, sym string) {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return "", name
	}
	return name[:slash+1+dot], name[slash+2+dot:]
}

func ruleMatches(rule, sym string) bool {
	if p, ok := strings.CutSuffix(rule, "*"); ok {
		return strings.HasPrefix(sym, p)
	}
	return sym == rule || strings.HasPrefix(sym, rule+".")
}

// classify returns the bucket of one frame, and whether the frame belongs to
// a layer at all.
func classify(name string) (bucket string, ok bool) {
	pkg, sym := splitSymbol(name)
	for _, l := range layerTable {
		if l.pkg != pkg {
			continue
		}
		b := l.def
		for rule, rb := range l.funcs {
			if ruleMatches(rule, sym) {
				b = rb
				break
			}
		}
		return b, b != inherit
	}
	return "", false
}

// bucketOf assigns a sample to the bucket of its innermost layer frame.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if b, ok := classify(f); ok {
			return b
		}
	}
	return bucketOther
}

// shares splits the profile's samples into buckets, as fractions of all
// samples. Every bucket is present, so an empty one reads 0.
func (p *cpuProfile) shares() (map[string]float64, int64) {
	counts := make(map[string]int64, len(bucketNames))
	var total int64
	for _, s := range p.samples {
		counts[bucketOf(s.frames)] += s.count
		total += s.count
	}
	out := make(map[string]float64, len(bucketNames))
	for _, b := range bucketNames {
		if total > 0 {
			out[b] = float64(counts[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out, total
}
