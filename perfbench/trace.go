package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"onepass"
	"onepass/internal/kv"
)

// layer names one group of wrapped user functions. The benchmark sees the
// program's layers only from outside: it wraps the functions it hands to
// the program and times each call as a span.
type layer int

const (
	layerGen layer = iota
	layerParse
	layerMap
	layerCombine
	layerReduce
	numLayers
)

var layerNames = [numLayers]string{"gen", "parse", "map_fn", "combine_fn", "reduce_fn"}

// layerStats accumulates one layer's spans. selfNs is the layer's self
// time: span durations minus the wrapped spans nested inside them.
type layerStats struct {
	selfNs, calls atomic.Int64
}

func (s *layerStats) add(selfNs, calls int64) {
	s.selfNs.Add(selfNs)
	s.calls.Add(calls)
}

// coverage measures the union of the intervals covered by top-level spans
// (spans with no wrapped parent) that may run on several goroutines at once,
// and the plain sum of their durations. On a serial op the two are equal;
// their difference on a pooled op is the time two spans overlapped.
type coverage struct {
	mu      sync.Mutex
	active  int
	since   int64
	lastEnd int64
	covered int64
	topNs   int64
}

func (c *coverage) enter(t int64) {
	c.mu.Lock()
	if c.active == 0 {
		c.since, c.lastEnd = t, t
	} else if t < c.since {
		c.since = t
	}
	c.active++
	c.mu.Unlock()
}

func (c *coverage) exit(start, end int64) {
	c.mu.Lock()
	c.active--
	c.topNs += end - start
	if end > c.lastEnd {
		c.lastEnd = end
	}
	if c.active == 0 {
		c.covered += c.lastEnd - c.since
	}
	c.mu.Unlock()
}

// tracer records the spans of one op. Leaf layers (gen, combine, reduce)
// are timed per call; the reader and the map function are timed through a
// per-job-instance nesting record, because the engine calls Map from inside
// the reader's yield. The map function's span includes its emit calls,
// which only append to the engine's in-memory buffer.
type tracer struct {
	clock  func() int64
	layers [numLayers]layerStats
	cov    coverage

	genMu     sync.Mutex
	genBlocks map[int]struct{}
	// records counts the records the wrapped readers yielded.
	records atomic.Int64
	// misuse counts reader entries that found their job instance already
	// inside a reader: two goroutines sharing one instance, which would make
	// the nesting record meaningless.
	misuse atomic.Int64
}

func newTracer(clock func() int64) *tracer {
	if clock == nil {
		base := time.Now()
		clock = func() int64 { return int64(time.Since(base)) }
	}
	return &tracer{clock: clock, genBlocks: make(map[int]struct{})}
}

func (t *tracer) begin() int64 {
	t0 := t.clock()
	t.cov.enter(t0)
	return t0
}

func (t *tracer) end(l layer, t0 int64) {
	t1 := t.clock()
	t.cov.exit(t0, t1)
	t.layers[l].add(t1-t0, 1)
}

// callEmitting times fn as one span of layer l, minus the time fn spends
// inside emit. A reducer's emit hands the pair to the engine's output
// collector, which charges virtual time and may let other simulated
// processes run before it returns, so that time is not the user
// function's.
func (t *tracer) callEmitting(l layer, emit onepass.Emit, fn func(onepass.Emit)) {
	var self int64
	t0 := t.begin()
	fn(func(key, val []byte) {
		t1 := t.clock()
		t.cov.exit(t0, t1)
		self += t1 - t0
		emit(key, val)
		t0 = t.begin()
	})
	t1 := t.clock()
	t.cov.exit(t0, t1)
	t.layers[l].add(self+t1-t0, 1)
}

// wrapGen times a dataset generator and records which blocks it produced.
func (t *tracer) wrapGen(gen func(block int, size int64) []byte) func(int, int64) []byte {
	return func(block int, size int64) []byte {
		t0 := t.begin()
		out := gen(block, size)
		t.end(layerGen, t0)
		t.genMu.Lock()
		t.genBlocks[block] = struct{}{}
		t.genMu.Unlock()
		return out
	}
}

// wrapJob returns job with its user functions timed. Every other field is
// kept as is. Fresh is wrapped so that each copy the engine asks for gets
// its own nesting record, and the monoid keeps its commutativity marker.
func (t *tracer) wrapJob(job onepass.Job) onepass.Job {
	in := &instance{t: t}
	w := job
	if read := job.Reader; read != nil {
		w.Reader = func(block []byte, yield func(rec []byte)) { in.read(read, block, yield) }
	}
	if mapf := job.Map; mapf != nil {
		w.Map = func(rec []byte, emit onepass.Emit) { in.mapRecord(mapf, rec, emit) }
	}
	if combine := job.Combine; combine != nil {
		w.Combine = func(key []byte, vals [][]byte, emit onepass.Emit) {
			t.callEmitting(layerCombine, emit, func(emit onepass.Emit) { combine(key, vals, emit) })
		}
	}
	if reduce := job.Reduce; reduce != nil {
		w.Reduce = func(key []byte, vals [][]byte, emit onepass.Emit) {
			t.callEmitting(layerReduce, emit, func(emit onepass.Emit) { reduce(key, vals, emit) })
		}
	}
	if job.Monoid != nil {
		w.Monoid = t.wrapMonoid(job.Monoid)
	}
	if fresh := job.Fresh; fresh != nil {
		w.Fresh = func() onepass.Job { return t.wrapJob(fresh()) }
	}
	return w
}

// instance is the nesting record of one job copy. The engine runs a copy's
// reader and map function on one goroutine at a time, so the record needs
// no lock; misuse detects a violation of that.
type instance struct {
	t     *tracer
	busy  atomic.Bool
	depth int
	// childNs is the time spent in map spans nested in the open reader span;
	// mapNs and mapCalls batch those spans until the reader span closes.
	childNs  int64
	mapNs    int64
	mapCalls int64
}

func (in *instance) read(read func([]byte, func([]byte)), block []byte, yield func(rec []byte)) {
	t := in.t
	if !in.busy.CompareAndSwap(false, true) {
		t.misuse.Add(1)
	}
	t0 := t.begin()
	child0 := in.childNs
	in.depth++
	var records int64
	read(block, func(rec []byte) {
		records++
		yield(rec)
	})
	in.depth--
	t1 := t.clock()
	t.cov.exit(t0, t1)
	t.layers[layerParse].add(t1-t0-(in.childNs-child0), 1)
	t.layers[layerMap].add(in.mapNs, in.mapCalls)
	t.records.Add(records)
	in.mapNs, in.mapCalls = 0, 0
	in.busy.Store(false)
}

func (in *instance) mapRecord(mapf func([]byte, onepass.Emit), rec []byte, emit onepass.Emit) {
	t := in.t
	if in.depth == 0 {
		t0 := t.begin()
		mapf(rec, emit)
		t.end(layerMap, t0)
		return
	}
	t0 := t.clock()
	mapf(rec, emit)
	d := t.clock() - t0
	in.childNs += d
	in.mapNs += d
	in.mapCalls++
}

// tracedMonoid times every Combine of a declared monoid as a combine_fn
// span: map-side combining and the hash engines' state folds alike.
type tracedMonoid struct {
	m kv.Monoid
	t *tracer
}

func (w tracedMonoid) Identity() []byte { return w.m.Identity() }

func (w tracedMonoid) Combine(a, b []byte) []byte {
	t0 := w.t.begin()
	out := w.m.Combine(a, b)
	w.t.end(layerCombine, t0)
	return out
}

// tracedCommutativeMonoid keeps the commutativity marker engines test for.
type tracedCommutativeMonoid struct{ tracedMonoid }

func (tracedCommutativeMonoid) Commutative() {}

func (t *tracer) wrapMonoid(m kv.Monoid) kv.Monoid {
	w := tracedMonoid{m: m, t: t}
	if kv.IsCommutative(m) {
		return tracedCommutativeMonoid{w}
	}
	return w
}

// opSpans is one op's span totals, in nanoseconds: the op span itself,
// the union and the sum of its top-level child spans, and the sum of every
// child span's self time.
type opSpans struct {
	opNs, covered, topNs, selfSum int64
	misuse                        int64
	serial                        bool
}

func (t *tracer) spans(opNs int64, serial bool) opSpans {
	s := opSpans{opNs: opNs, covered: t.cov.covered, topNs: t.cov.topNs, misuse: t.misuse.Load(), serial: serial}
	for i := range t.layers {
		s.selfSum += t.layers[i].selfNs.Load()
	}
	return s
}

// frameworkSelf is the op span's self time: its duration minus the part
// its wrapped children cover.
func (s opSpans) frameworkSelf() int64 { return s.opNs - s.covered }

// overlap is how much longer the child spans' self times sum to than the
// time they cover: zero on a serial op, concurrency on a pooled one.
func (s opSpans) overlap() int64 { return s.selfSum - s.covered }

// checkTiling verifies that the span self times tile the op: the children's
// self times sum to their top-level spans' durations, the children lie
// inside the op, and on a serial op no two spans overlap, so the framework
// self time plus every child's self time is exactly the op's duration.
func (s opSpans) checkTiling() error {
	switch {
	case s.misuse > 0:
		return fmt.Errorf("%d reader spans shared one job instance across goroutines", s.misuse)
	case s.selfSum != s.topNs:
		return fmt.Errorf("child self times sum to %d ns, top-level child spans to %d ns", s.selfSum, s.topNs)
	case s.covered < 0 || s.covered > s.topNs:
		return fmt.Errorf("child spans cover %d ns of %d ns of child spans", s.covered, s.topNs)
	case s.frameworkSelf() < 0:
		return fmt.Errorf("child spans cover %d ns of a %d ns op", s.covered, s.opNs)
	case s.serial && s.overlap() != 0:
		return fmt.Errorf("serial op has %d ns of overlapping child spans", s.overlap())
	}
	return nil
}
