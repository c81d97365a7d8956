// Command perfbench is the repository's wall-clock benchmark. It drives
// the public onepass API from one process over one named workload, checks
// every op's output, and prints end-to-end metrics (tracing off) or
// per-layer metrics (a separate traced run). See README.md for the
// workloads and the metrics each layer should move.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload batch-sortmerge --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: batch-sortmerge, batch-hash or delta-rerun")
	seed := fs.Int64("seed", 1, "run seed; the generator seeds below default to values derived from it")
	seconds := fs.Float64("seconds", 20, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	clickSeed := fs.Uint64("click-seed", 0, "click-log generator seed (0: derived from -seed)")
	docSeed := fs.Uint64("doc-seed", 0, "document generator seed (0: derived from -seed)")
	deltaSeed := fs.Uint64("delta-seed", 0, "delta derivation seed (0: derived from -seed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	s := seeds{click: *clickSeed, doc: *docSeed, delta: *deltaSeed}
	derived := splitmix(uint64(*seed))
	for _, p := range []*uint64{&s.click, &s.doc, &s.delta} {
		if *p == 0 {
			*p = derived.next()
		}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d click-seed=%d doc-seed=%d delta-seed=%d trace=%d seconds=%g\n",
		w.name, *seed, s.click, s.doc, s.delta, *traced, *seconds)
	fmt.Fprintf(stdout, "# nproc=%d GOMAXPROCS=%d pool=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), max(1, w.config(0).Parallelism), runtime.Version(), commit())
	fmt.Fprintf(stdout, "# why: %s\n", w.why)

	b := &bench{w: w, seeds: s, out: stdout, errs: stderr}
	deadline := time.Duration(*seconds * float64(time.Second))
	if !b.setup() {
		b.finish(nil)
		return 1
	}
	var metrics []metric
	if *traced == 1 {
		metrics = b.tracedRun(deadline)
	} else {
		metrics = b.untracedRun(deadline)
	}
	if !b.finish(metrics) {
		return 1
	}
	return 0
}

// commit names the source revision the binary was built from, when the
// build could stamp it.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// splitmix derives well-mixed nonzero seeds from one run seed.
type splitmix uint64

func (s *splitmix) next() uint64 {
	for {
		*s += 0x9E3779B97F4A7C15
		z := uint64(*s)
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		if z ^= z >> 31; z != 0 {
			return z
		}
	}
}

// metric is one reported value with its sample.
type metric struct {
	name, unit string
	value      float64
	sum        summary
	// how says how value derives from sum when it is not sum's median.
	how string
}

// pointMetric is a value computed once from n underlying samples, such as
// a share of all profile samples.
func pointMetric(name string, value float64, n int) metric {
	return metric{name: name, unit: unitOf(name), value: value,
		sum: summary{N: n, Median: value, P25: math.NaN(), P75: math.NaN(), Tail: math.NaN()}}
}

func medianMetric(name, unit string, xs []float64) metric {
	s := summarize(xs)
	return metric{name: name, unit: unit, value: s.Median, sum: s}
}

// bench holds one run's state: the workload, its set-up outputs, and the
// op tallies.
type bench struct {
	w     workloadSpec
	seeds seeds
	out   io.Writer
	errs  io.Writer

	baselines map[op]baseline
	setupS    []float64
	attempted int
	failed    int
	// broken records a failed check that is not one op's: set-up rounds that
	// disagree, or spans that do not tile.
	broken []string
}

// setup computes every job's reference checksum and runs one untimed
// warm-up pass, whose makespans and counters later runs must reproduce.
// It does so setupRounds times from scratch and keeps the median time; all
// rounds must agree.
func (b *bench) setup() bool {
	for round := 0; round < setupRounds; round++ {
		runtime.GC()
		t0 := time.Now()
		refs := map[string]uint64{}
		for _, job := range b.w.jobs {
			sum, err := b.w.reference(job, b.seeds)
			if err != nil {
				fmt.Fprintln(b.errs, "perfbench: set-up:", err)
				b.broken = append(b.broken, "reference: "+err.Error())
				return false
			}
			refs[job] = sum
		}
		bl := map[op]baseline{}
		for _, o := range b.w.ops() {
			r, err := b.w.runOp(o, b.seeds, nil)
			b.attempted++
			if err == nil && r.checksum != refs[o.job] {
				err = fmt.Errorf("output checksum %016x, reference %016x", r.checksum, refs[o.job])
			}
			if err != nil {
				b.failed++
				fmt.Fprintf(b.errs, "perfbench: warm-up %s: %v\n", o, err)
				continue
			}
			bl[o] = baseline{checksum: refs[o.job], makespan: r.makespan, counters: r.counters}
		}
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
		if b.baselines != nil {
			for o, want := range b.baselines {
				if err := want.verify(opResult{checksum: bl[o].checksum, makespan: bl[o].makespan, counters: bl[o].counters}); err != nil {
					b.broken = append(b.broken, fmt.Sprintf("set-up round %d disagrees on %s: %v", round, o, err))
				}
			}
		}
		b.baselines = bl
	}
	return b.failed == 0 && len(b.broken) == 0
}

// runOp runs one timed op and checks it against its baseline.
func (b *bench) runOp(o op, tr *tracer) (opResult, bool) {
	r, err := b.w.runOp(o, b.seeds, tr)
	b.attempted++
	if err == nil {
		err = b.baselines[o].verify(r)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(b.errs, "perfbench: %s: %v\n", o, err)
		return r, false
	}
	return r, true
}

// passSample is the host cost of one pass over the job list.
type passSample struct {
	wall, cpu, allocMB, peakMB, makespan float64
	gcCycles, allocs                     float64
	// opWall and opCPU are each op's wall and CPU seconds, in op order.
	opWall, opCPU []float64
}

// measurePass runs body as one pass, with a collected heap beforehand so
// that passes start alike. Each op in body also starts on a collected heap
// (see passes), so an op's time holds only the collections its own
// allocation forced.
func measurePass(body func()) passSample {
	runtime.GC()
	m0 := readRuntime()
	cpu0 := cpuSeconds()
	peak := startPeakSampler()
	t0 := time.Now()
	body()
	wall := time.Since(t0).Seconds()
	peakBytes := peak.stop()
	cpu1 := cpuSeconds()
	m1 := readRuntime()
	return passSample{
		wall:     wall,
		cpu:      cpu1 - cpu0,
		allocMB:  float64(m1.allocBytes-m0.allocBytes) / 1e6,
		peakMB:   float64(peakBytes) / 1e6,
		gcCycles: float64(m1.gcCycles - m0.gcCycles),
		allocs:   float64(m1.allocObjects - m0.allocObjects),
	}
}

// passes runs passes over the job list until d has elapsed, at least one.
// With newTracer set, each op runs traced and perOp sees its result, its
// tracer and its span duration; endPass runs after each pass.
func (b *bench) passes(d time.Duration, newTracer func() *tracer, perOp func(op, opResult, *tracer, int64), endPass func()) []passSample {
	var out []passSample
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		var makespan float64
		var opWall, opCPU []float64
		ps := measurePass(func() {
			for _, o := range b.w.ops() {
				runtime.GC()
				w0, c0 := time.Now(), cpuSeconds()
				var t *tracer
				var t0 int64
				if newTracer != nil {
					t = newTracer()
					t0 = t.clock()
				}
				r, ok := b.runOp(o, t)
				var opNs int64
				if t != nil {
					opNs = t.clock() - t0
				}
				opWall = append(opWall, time.Since(w0).Seconds())
				opCPU = append(opCPU, cpuSeconds()-c0)
				if !ok {
					continue
				}
				makespan += r.makespan.Seconds()
				if perOp != nil {
					perOp(o, r, t, opNs)
				}
			}
		})
		ps.makespan = makespan
		ps.opWall, ps.opCPU = opWall, opCPU
		out = append(out, ps)
		if endPass != nil {
			endPass()
		}
	}
	return out
}

func column(ps []passSample, f func(passSample) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// untracedRun measures the end-to-end metrics.
func (b *bench) untracedRun(d time.Duration) []metric {
	ps := b.passes(d, nil, nil, nil)
	b.printPasses("untraced", ps)
	return endToEndMetrics(ps, b.setupS)
}

// printPasses lists each pass's wall time, in run order, so drift within a
// run shows.
func (b *bench) printPasses(label string, ps []passSample) {
	fmt.Fprintf(b.out, "# %s pass wall_s:", label)
	for _, p := range ps {
		fmt.Fprintf(b.out, " %.4g", p.wall)
	}
	fmt.Fprintln(b.out)
}

// endToEndMetrics reports wall_s and cpu_s as the sum over the pass's ops of
// each op's median over passes, peak_heap_mb as the largest peak of any
// pass, and the other metrics as medians over passes. Other processes on a
// shared host take the CPUs in bursts of a few seconds; a burst lands in
// only some runs of an op, and an op's median skips it, while it lands in
// most passes, which run every op. The whole-pass medians are printed
// beside them.
func endToEndMetrics(ps []passSample, setupS []float64) []metric {
	perOp := func(name string, pass func(passSample) float64, op func(passSample) []float64) metric {
		perPass := make([][]float64, len(ps))
		for i, p := range ps {
			perPass[i] = op(p)
		}
		return metric{name: name, unit: "s", value: opMedianSum(perPass), sum: summarize(column(ps, pass)),
			how: fmt.Sprintf("each of %d ops at its median, summed; whole passes:", len(perPass[0]))}
	}
	return []metric{
		perOp("wall_s", func(p passSample) float64 { return p.wall }, func(p passSample) []float64 { return p.opWall }),
		perOp("cpu_s", func(p passSample) float64 { return p.cpu }, func(p passSample) []float64 { return p.opCPU }),
		medianMetric("alloc_mb", "MB", column(ps, func(p passSample) float64 { return p.allocMB })),
		peakMetric(column(ps, func(p passSample) float64 { return p.peakMB })),
		medianMetric("makespan_s", "s", column(ps, func(p passSample) float64 { return p.makespan })),
		medianMetric("setup_s", "s", setupS),
	}
}

// peakMetric reports the largest of the passes' peak live heaps. The live
// heap is only known where a collection marks it, so each pass's peak falls
// short of the true peak by an amount that depends on when collections ran;
// the largest over passes comes closest.
func peakMetric(perPass []float64) metric {
	return metric{name: "peak_heap_mb", unit: "MB", value: slices.Max(perPass), sum: summarize(perPass),
		how: "largest of the passes' peaks; passes:"}
}

func sumCounter(c map[string]float64, name string) float64 {
	var s float64
	for k, v := range c {
		if k == name || strings.HasSuffix(k, ":"+name) {
			s += v
		}
	}
	return s
}

// tracedRun measures the per-layer metrics: a third of the time untraced,
// for the tracing overhead, then traced passes under the CPU profiler.
// Every traced op must reproduce its baseline and its spans must tile it.
func (b *bench) tracedRun(d time.Duration) []metric {
	plain := b.passes(d/3, nil, nil, nil)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		b.broken = append(b.broken, "cpu profile: "+err.Error())
		return nil
	}
	serial := !b.w.pooled || poolWidth() < 2
	var perPass []map[string]float64
	cur := map[string]float64{}
	perOp := func(o op, r opResult, t *tracer, opNs int64) {
		sp := t.spans(opNs, serial)
		if err := sp.checkTiling(); err != nil {
			b.broken = append(b.broken, fmt.Sprintf("%s: spans do not tile the op: %v", o, err))
		}
		cur["framework.self_s"] += float64(sp.frameworkSelf()) / 1e9
		cur["span.overlap_s"] += float64(sp.overlap()) / 1e9
		for l := layer(0); l < numLayers; l++ {
			st := &t.layers[l]
			cur[layerNames[l]+".busy_s"] += float64(st.selfNs.Load()) / 1e9
			cur[layerNames[l]+".calls"] += float64(st.calls.Load())
		}
		cur["parse.records"] += float64(t.records.Load())
		cur["gen.blocks"] += float64(len(t.genBlocks))
		c := r.counters
		cur["sort.comparisons"] += sumCounter(c, "sort.comparisons")
		cur["merge.passes"] += sumCounter(c, "merge.passes")
		cur["merge.comparisons"] += sumCounter(c, "merge.comparisons")
		cur["spill.mb"] += (sumCounter(c, "map.spill.bytes") + sumCounter(c, "reduce.spill.bytes")) / 1e6
		cur["hash.ops"] += sumCounter(c, "hash.ops")
		cur["shuffle.mb"] += sumCounter(c, "shuffle.bytes") / 1e6
		cur["pool.closures"] += float64(r.poolClosures)
		cur["pool.busy_s"] += float64(r.poolBusyNs) / 1e9
		cur["pool.max_in_flight"] = max(cur["pool.max_in_flight"], float64(r.poolMaxInFlight))
		if st := r.delta; st != nil {
			cur["incr.affected_keys"] += float64(st.AffectedKeys)
			cur["incr.total_keys"] += float64(st.TotalKeys)
			cur["incr.state_mb"] += float64(st.StateBytes) / 1e6
			cur["incr.disk_read_mb"] += st.IncrementalDiskReadBytes / 1e6
		}
	}
	endPass := func() {
		perPass = append(perPass, cur)
		cur = map[string]float64{}
	}
	traced := b.passes(d-d/3, func() *tracer { return newTracer(nil) }, perOp, endPass)
	pprof.StopCPUProfile()
	b.printPasses("untraced", plain)
	b.printPasses("traced", traced)

	for i, ps := range traced {
		v := perPass[i]
		v["gen.calls_per_block"] = ratio(v["gen.calls"], v["gen.blocks"])
		v["incr.affected_ratio"] = ratio(v["incr.affected_keys"], v["incr.total_keys"])
		v["pool.busy_share"] = ratio(v["pool.busy_s"], ps.wall)
		v["gc.cycles"] = ps.gcCycles
		v["allocs"] = ps.allocs
		v["trace.wall_s"] = ps.wall
	}
	for _, v := range perPass {
		for k := range v {
			if !slices.Contains(perLayerNames, k) && k != "incr.total_keys" {
				b.broken = append(b.broken, "per-layer value without a listed name: "+k)
			}
		}
	}
	var out []metric
	for _, n := range perLayerNames {
		if strings.HasPrefix(n, "cpu_share.") || n == "trace.overhead_frac" {
			continue
		}
		xs := make([]float64, len(perPass))
		for i, v := range perPass {
			xs[i] = v[n]
		}
		out = append(out, medianMetric(n, unitOf(n), xs))
	}
	plainWall := summarize(column(plain, func(p passSample) float64 { return p.wall })).Median
	tracedWall := summarize(column(traced, func(p passSample) float64 { return p.wall })).Median
	out = append(out, pointMetric("trace.overhead_frac", tracedWall/plainWall-1, len(plain)+len(traced)))

	p, err := parseProfile(prof.Bytes())
	if err != nil {
		b.broken = append(b.broken, err.Error())
		return out
	}
	shares, samples := p.shares()
	for _, bk := range bucketNames {
		out = append(out, pointMetric("cpu_share."+bk, shares[bk], int(samples)))
	}
	return out
}

// perLayerNames lists every per-layer metric a traced run reports, in
// report order.
var perLayerNames = []string{
	"gen.busy_s", "gen.calls", "gen.blocks", "gen.calls_per_block",
	"parse.busy_s", "parse.calls", "parse.records",
	"map_fn.busy_s", "map_fn.calls", "combine_fn.busy_s", "combine_fn.calls",
	"reduce_fn.busy_s", "reduce_fn.calls",
	"sort.comparisons", "merge.passes", "merge.comparisons", "spill.mb",
	"hash.ops", "shuffle.mb",
	"incr.affected_keys", "incr.affected_ratio", "incr.state_mb", "incr.disk_read_mb",
	"pool.closures", "pool.busy_s", "pool.max_in_flight", "pool.busy_share",
	"gc.cycles", "allocs",
	"framework.self_s", "span.overlap_s", "trace.wall_s", "trace.overhead_frac",
	"cpu_share.gen", "cpu_share.parse", "cpu_share.user_fn", "cpu_share.sort", "cpu_share.merge",
	"cpu_share.codec", "cpu_share.hash_state", "cpu_share.incr", "cpu_share.sim", "cpu_share.gc",
	"cpu_share.framework", "cpu_share.bench", "cpu_share.other",
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, ".mb"), strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasPrefix(name, "cpu_share."), strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"),
		strings.HasSuffix(name, "_per_block"), strings.HasSuffix(name, "_frac"):
		return "ratio"
	}
	return "count"
}

// finish prints the report and the result line, and reports whether the
// run was correct.
func (b *bench) finish(metrics []metric) bool {
	for _, m := range metrics {
		fmt.Fprintf(b.out, "%-28s %14.6g %-6s %s\n", m.name, m.value, m.unit, strings.TrimSpace(m.how+" "+m.sum.String()))
	}
	failedFrac := 0.0
	if b.attempted > 0 {
		failedFrac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(b.out, "%-28s %14.6g %-6s %d of %d ops\n", "failed_ops_frac", failedFrac, "ratio", b.failed, b.attempted)
	for _, msg := range b.broken {
		fmt.Fprintln(b.errs, "perfbench:", msg)
	}
	correct := b.failed == 0 && len(b.broken) == 0 && len(metrics) > 0
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: correct, Attempted: max(b.attempted, 1), Failed: b.failed, Metrics: map[string]value{}}
	if b.attempted == 0 {
		res.Failed = 1
	}
	for _, m := range metrics {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(b.errs, "perfbench:", err)
		return false
	}
	fmt.Fprintln(b.out, string(line))
	return correct
}
