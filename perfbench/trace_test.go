package main

import (
	"strings"
	"testing"

	"onepass"
	"onepass/internal/kv"
)

// fakeClock returns a clock that reads *now, so a test decides how long
// each span lasts.
func fakeClock(now *int64) func() int64 { return func() int64 { return *now } }

func TestCoverageIsTheUnionOfSpans(t *testing.T) {
	var c coverage
	// [0,10] and [5,15] overlap; [20,22] stands alone.
	c.enter(0)
	c.enter(5)
	c.exit(0, 10)
	c.exit(5, 15)
	c.enter(20)
	c.exit(20, 22)
	if c.covered != 17 || c.topNs != 22 {
		t.Fatalf("covered %d top %d, want 17 and 22", c.covered, c.topNs)
	}
}

func TestReaderSelfTimeExcludesNestedMaps(t *testing.T) {
	var now int64
	tr := newTracer(fakeClock(&now))
	job := tr.wrapJob(onepass.Job{
		Reader: func(block []byte, yield func(rec []byte)) {
			now += 3 // parse work before each record
			yield(block[:1])
			now += 3
			yield(block[1:])
			now += 1
		},
		Map: func(rec []byte, emit onepass.Emit) {
			now += 10
			emit(rec, rec)
		},
	})
	now = 100
	job.Reader([]byte("ab"), func(rec []byte) { job.Map(rec, func(k, v []byte) {}) })
	now += 5 // framework time after the reader
	opNs := now - 100

	if got := tr.layers[layerParse].selfNs.Load(); got != 7 {
		t.Fatalf("parse self %d, want 7", got)
	}
	if got, calls := tr.layers[layerMap].selfNs.Load(), tr.layers[layerMap].calls.Load(); got != 20 || calls != 2 {
		t.Fatalf("map self %d over %d calls, want 20 over 2", got, calls)
	}
	if got := tr.records.Load(); got != 2 {
		t.Fatalf("parse records %d, want 2", got)
	}
	sp := tr.spans(opNs, true)
	if err := sp.checkTiling(); err != nil {
		t.Fatal(err)
	}
	if sp.frameworkSelf() != 5 || sp.frameworkSelf()+sp.selfSum != opNs {
		t.Fatalf("framework self %d plus children %d does not tile the %d ns op", sp.frameworkSelf(), sp.selfSum, opNs)
	}
}

func TestReduceSpanExcludesEmit(t *testing.T) {
	var now int64
	tr := newTracer(fakeClock(&now))
	job := tr.wrapJob(onepass.Job{
		Reduce: func(key []byte, vals [][]byte, emit onepass.Emit) {
			now += 4
			emit(key, vals[0])
			now += 2
		},
	})
	job.Reduce([]byte("k"), [][]byte{[]byte("v"), []byte("w")}, func(k, v []byte) { now += 100 })
	st := &tr.layers[layerReduce]
	if st.selfNs.Load() != 6 || st.calls.Load() != 1 {
		t.Fatalf("reduce self %d over %d calls, want 6 over 1", st.selfNs.Load(), st.calls.Load())
	}
	sp := tr.spans(now, true)
	if err := sp.checkTiling(); err != nil {
		t.Fatal(err)
	}
	if sp.frameworkSelf() != 100 {
		t.Fatalf("framework self %d, want the 100 ns spent in emit", sp.frameworkSelf())
	}
}

func TestCheckTilingRejectsBrokenSpans(t *testing.T) {
	for _, c := range []struct {
		name string
		sp   opSpans
		want string
	}{
		{"serial overlap", opSpans{opNs: 100, covered: 50, topNs: 60, selfSum: 60, serial: true}, "overlapping"},
		{"children outside op", opSpans{opNs: 40, covered: 50, topNs: 50, selfSum: 50}, "cover"},
		{"self sum", opSpans{opNs: 100, covered: 50, topNs: 50, selfSum: 49}, "sum"},
		{"shared instance", opSpans{opNs: 100, misuse: 1}, "shared"},
	} {
		err := c.sp.checkTiling()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
	pooled := opSpans{opNs: 100, covered: 50, topNs: 70, selfSum: 70}
	if err := pooled.checkTiling(); err != nil || pooled.overlap() != 20 {
		t.Fatalf("pooled op with 20 ns of overlap: %v, overlap %d", err, pooled.overlap())
	}
}

func TestWrapJobKeepsFieldsFreshAndMonoidMarker(t *testing.T) {
	tr := newTracer(nil)
	base := newWorkload("per-user-count", seeds{click: 1, doc: 2, delta: 3}).Job
	w := tr.wrapJob(base)
	if w.Name != base.Name || w.Costs != base.Costs || w.OrderInsensitive != base.OrderInsensitive ||
		w.BinaryInput != base.BinaryInput || (w.Combine == nil) != (base.Combine == nil) {
		t.Fatal("wrapping changed a job field")
	}
	if !kv.IsCommutative(w.Monoid) {
		t.Fatal("wrapped monoid lost its commutativity marker")
	}
	if w.Fresh == nil {
		t.Fatal("wrapped job lost Fresh")
	}
	f := w.Fresh()
	if !kv.IsCommutative(f.Monoid) || f.Fresh == nil {
		t.Fatal("a Fresh copy of the wrapped job is not wrapped alike")
	}
	if got, want := string(f.Monoid.Combine([]byte("2"), []byte("3"))), "5"; got != want {
		t.Fatalf("wrapped monoid combines to %q, want %q", got, want)
	}
	if tr.layers[layerCombine].calls.Load() != 1 {
		t.Fatal("Fresh copy's monoid is not traced")
	}
}

// TestTracingDoesNotPerturbRuns runs one op of every workload traced and
// untraced: checksums, makespans and counters must agree exactly, and the
// traced spans must tile the op.
func TestTracingDoesNotPerturbRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full ops")
	}
	s := seeds{click: 11, doc: 12, delta: 13}
	for _, w := range workloadSpecs {
		o := w.ops()[len(w.ops())-1]
		plain, err := w.runOp(o, s, nil)
		if err != nil {
			t.Fatalf("%s %s: %v", w.name, o, err)
		}
		tr := newTracer(nil)
		t0 := tr.clock()
		traced, err := w.runOp(o, s, tr)
		opNs := tr.clock() - t0
		if err != nil {
			t.Fatalf("%s %s traced: %v", w.name, o, err)
		}
		bl := baseline{checksum: plain.checksum, makespan: plain.makespan, counters: plain.counters}
		if err := bl.verify(traced); err != nil {
			t.Errorf("%s %s: traced run differs: %v", w.name, o, err)
		}
		serial := !w.pooled || poolWidth() < 2
		if err := tr.spans(opNs, serial).checkTiling(); err != nil {
			t.Errorf("%s %s: %v", w.name, o, err)
		}
		if tr.layers[layerGen].calls.Load() == 0 || tr.layers[layerMap].calls.Load() == 0 {
			t.Errorf("%s %s: no gen or map spans recorded", w.name, o)
		}
	}
}
