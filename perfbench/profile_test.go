package main

import (
	"bytes"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
)

func TestSplitSymbol(t *testing.T) {
	for _, c := range []struct{ in, pkg, sym string }{
		{"onepass/internal/kv.(*Buffer).SortByPartitionKey.func1", "onepass/internal/kv", "(*Buffer).SortByPartitionKey.func1"},
		{"onepass.RunDelta", "onepass", "RunDelta"},
		{"main.(*tracer).wrapJob.func4", "main", "(*tracer).wrapJob.func4"},
		{"runtime.mallocgc", "runtime", "mallocgc"},
		{"slices.pdqsortCmpFunc[go.shape.struct { onepass/internal/kv.a int }]", "slices", "pdqsortCmpFunc"},
		{"sort.Slice", "sort", "Slice"},
		{"nodot", "", "nodot"},
	} {
		if pkg, sym := splitSymbol(c.in); pkg != c.pkg || sym != c.sym {
			t.Errorf("splitSymbol(%q) = %q, %q; want %q, %q", c.in, pkg, sym, c.pkg, c.sym)
		}
	}
}

func TestBucketOfUsesInnermostLayerFrame(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		// sort.Slice is no layer; kv.Compare defers to its caller.
		{[]string{"onepass/internal/kv.Compare", "sort.insertionSort_func", "sort.Slice", "onepass/internal/kv.(*Buffer).SortByPartitionKey", "onepass/internal/hadoop.runMapTask.func1"}, bucketSort},
		{[]string{"onepass/internal/kv.Compare", "onepass/internal/kv.MergeStreams", "onepass/internal/hadoop.MergeGroupReduce"}, bucketMerge},
		{[]string{"runtime.memmove", "onepass/internal/kv.AppendPair", "onepass/internal/core.runMapTask"}, bucketCodec},
		{[]string{"runtime.mallocgcSmallNoscan", "runtime.mallocgc", "onepass/internal/gen.ClickConfig.Block"}, bucketGC},
		{[]string{"math/rand.(*Zipf).Uint64", "onepass/internal/gen.ClickConfig.Block", "main.(*tracer).wrapGen.func1"}, bucketGen},
		{[]string{"onepass/internal/textfmt.ParseClickText", "onepass/internal/workloads.countingWorkload.func1"}, bucketParse},
		{[]string{"onepass/internal/workloads.sessionizeReducer.func1", "onepass/internal/engine.(*OutputCollector).Emit"}, bucketUserFn},
		{[]string{"onepass/internal/incr.(*State).MergeInput", "onepass.runMerge"}, bucketIncr},
		{[]string{"onepass.captureJob.func2", "onepass/internal/engine.(*Runtime).ExecuteMapWith.func1"}, bucketIncr},
		{[]string{"onepass/internal/sim.(*Env).Run", "onepass.Run"}, bucketSim},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, bucketOther},
	} {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestLayerTableRulesDoNotOverlap checks that no frame can match two rules
// of one package, so each frame maps to exactly one bucket.
func TestLayerTableRulesDoNotOverlap(t *testing.T) {
	seen := map[string]bool{}
	for _, l := range layerTable {
		if seen[l.pkg] {
			t.Errorf("package %s listed twice", l.pkg)
		}
		seen[l.pkg] = true
		if l.def != inherit && !slices.Contains(bucketNames, l.def) {
			t.Errorf("package %s: unknown bucket %q", l.pkg, l.def)
		}
		for a, ba := range l.funcs {
			if ba != inherit && !slices.Contains(bucketNames, ba) {
				t.Errorf("%s.%s: unknown bucket %q", l.pkg, a, ba)
			}
			for b := range l.funcs {
				if a != b && ruleMatches(a, strings.TrimSuffix(b, "*")) {
					t.Errorf("package %s: rule %q also matches rule %q", l.pkg, a, b)
				}
			}
		}
	}
}

// TestSampledFramesMapToOneBucket profiles one op of every workload and
// checks every sampled frame from the repository's packages: its package
// is in the layer table and at most one function rule matches it.
func TestSampledFramesMapToOneBucket(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles full ops")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler busy: %v", err)
	}
	s := seeds{click: 21, doc: 22, delta: 23}
	for _, w := range workloadSpecs {
		for _, o := range w.ops()[:2] {
			if _, err := w.runOp(o, s, newTracer(nil)); err != nil {
				pprof.StopCPUProfile()
				t.Fatalf("%s %s: %v", w.name, o, err)
			}
		}
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Fatal("profile has no samples")
	}
	buckets := map[string]int{}
	for _, smp := range p.samples {
		buckets[bucketOf(smp.frames)]++
		for _, f := range smp.frames {
			pkg, sym := splitSymbol(f)
			if pkg != "onepass" && !strings.HasPrefix(pkg, "onepass/") {
				continue
			}
			i := slices.IndexFunc(layerTable, func(l pkgLayer) bool { return l.pkg == pkg })
			if i < 0 {
				t.Errorf("frame %s: package %s is not in the layer table", f, pkg)
				continue
			}
			matched := 0
			for rule := range layerTable[i].funcs {
				if ruleMatches(rule, sym) {
					matched++
				}
			}
			if matched > 1 {
				t.Errorf("frame %s matches %d rules", f, matched)
			}
		}
	}
	for _, b := range []string{bucketGen, bucketHashState} {
		if buckets[b] == 0 {
			t.Errorf("no samples in bucket %s: %v", b, buckets)
		}
	}
}
