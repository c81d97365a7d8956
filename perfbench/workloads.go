package main

import (
	"fmt"
	"maps"
	"runtime"

	"onepass"
	"onepass/internal/check"
	"onepass/internal/gen"
	"onepass/internal/workloads"
)

// Shared scale. The inputs are the Table I setup (16 MB of input in 1 MB
// blocks, 256 KB of memory per task) shrunk by a factor of four in bytes
// only: 4 MB in 256 KB blocks with 64 KB per task keeps the 16 map tasks,
// the 20 reducers and the data-to-memory ratio, so reducers still spill
// and, at fan-in 4, merge in several passes.
const (
	inputBytes  = 4 << 20
	blockBytes  = 256 << 10
	taskMemory  = 64 << 10
	nodes       = 10
	reducers    = 20
	mergeFanIn  = 4
	deltaFrac   = 0.01
	setupRounds = 3
)

// workloadSpec is one benchmark workload: a job list run serially, each
// job on each engine, as one pass.
type workloadSpec struct {
	name string
	why  string
	jobs []string
	engs []onepass.Engine
	// pooled runs the intra-run worker pool at the host's width; the other
	// workloads run serially.
	pooled bool
	// delta runs each op as an incremental re-run (onepass.RunDelta).
	delta bool
}

var workloadSpecs = []workloadSpec{
	{
		name: "batch-sortmerge",
		why:  "sort-merge group-by: map-side sort and multi-pass reduce merges, where the paper says batch CPU goes",
		jobs: []string{"sessionization", "page-frequency", "per-user-count", "inverted-index"},
		engs: []onepass.Engine{onepass.Hadoop, onepass.MapReduceOnline},
	},
	{
		name:   "batch-hash",
		why:    "hash group-by with no sort, and the only workload that runs the worker pool in parallel",
		jobs:   []string{"sessionization", "per-user-count", "inverted-index"},
		engs:   []onepass.Engine{onepass.HashIncremental, onepass.HashHotKey, onepass.Resident},
		pooled: true,
	},
	{
		name:  "delta-rerun",
		why:   "incremental re-runs over a 1% delta: the only workload that writes and reads back preserved state",
		jobs:  []string{"per-user-count", "windowed-sessionization"},
		engs:  []onepass.Engine{onepass.HashIncremental, onepass.Resident},
		delta: true,
	},
}

func findWorkload(name string) (workloadSpec, error) {
	var names []string
	for _, w := range workloadSpecs {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// seeds are the generator seeds of one run.
type seeds struct {
	click, doc, delta uint64
}

func newWorkload(job string, s seeds) *workloads.Workload {
	clicks := gen.DefaultClickConfig()
	clicks.Seed = s.click
	docs := gen.DefaultDocConfig()
	docs.Seed = s.doc
	switch job {
	case "sessionization":
		return workloads.Sessionization(clicks)
	case "page-frequency":
		return workloads.PageFrequency(clicks)
	case "per-user-count":
		return workloads.PerUserCount(clicks)
	case "windowed-sessionization":
		return workloads.WindowedSessionization(clicks, 0)
	case "inverted-index":
		return workloads.InvertedIndex(docs)
	}
	panic("perfbench: no constructor for job " + job)
}

func (s seeds) deltaSpec() onepass.Delta {
	clicks := gen.DefaultClickConfig()
	clicks.Seed = s.click
	return onepass.DefaultDelta(clicks, s.delta, deltaFrac)
}

// poolWidth is the intra-run worker pool width of pooled workloads: two
// workers, or fewer on a smaller host.
func poolWidth() int { return min(2, runtime.NumCPU()) }

func (w workloadSpec) config(e onepass.Engine) onepass.Config {
	cfg := onepass.DefaultConfig()
	cfg.Engine = e
	cfg.Nodes = nodes
	cfg.BlockSize = blockBytes
	cfg.Reducers = reducers
	cfg.MemoryPerTask = taskMemory
	cfg.FanIn = mergeFanIn
	cfg.DiscardOutput = true
	if w.pooled {
		cfg.Parallelism = poolWidth()
	}
	return cfg
}

// op is one job on one engine.
type op struct {
	job string
	eng onepass.Engine
}

func (o op) String() string { return o.job + "/" + o.eng.String() }

func (w workloadSpec) ops() []op {
	var out []op
	for _, j := range w.jobs {
		for _, e := range w.engs {
			out = append(out, op{j, e})
		}
	}
	return out
}

func dataset(wl *workloads.Workload) onepass.Dataset {
	return onepass.Dataset{Path: "input/" + wl.Name, Size: inputBytes, Gen: wl.Gen}
}

// reference computes a job's expected output checksum. A batch job's is
// the in-memory reference evaluation over the same generated blocks; a
// delta job's is one full re-run over the evolved dataset, which every
// incremental re-run must reproduce.
func (w workloadSpec) reference(job string, s seeds) (uint64, error) {
	wl := newWorkload(job, s)
	if !w.delta {
		blocks := check.ReferenceBlocks(wl, inputBytes, blockBytes)
		return outputChecksum(workloads.Reference(wl, blocks)), nil
	}
	cfg := w.config(w.engs[0])
	res, err := onepass.Run(cfg, onepass.DeltaDataset(dataset(wl), s.deltaSpec(), blockBytes), wl.Job)
	if err != nil {
		return 0, fmt.Errorf("full re-run of %s: %w", job, err)
	}
	return res.OutputChecksum, nil
}

// outputChecksum digests an output map the way Result.OutputChecksum does:
// the sum over pairs of FNV-1a(key, 0xff, value).
func outputChecksum(out map[string]string) uint64 {
	const prime = 1099511628211
	var sum uint64
	for k, v := range out {
		h := uint64(14695981039346656037)
		for i := 0; i < len(k); i++ {
			h ^= uint64(k[i])
			h *= prime
		}
		h ^= 0xff
		h *= prime
		for i := 0; i < len(v); i++ {
			h ^= uint64(v[i])
			h *= prime
		}
		sum += h
	}
	return sum
}

// opResult is what one op's run exposes through the public API.
type opResult struct {
	checksum uint64
	makespan onepass.Duration
	counters map[string]float64
	// poolClosures, poolBusyNs and poolMaxInFlight are the worker pool's
	// real-time activity (Result.Pool); they vary from run to run.
	poolClosures, poolBusyNs, poolMaxInFlight int64
	delta                                     *onepass.DeltaStats
}

func addCounters(dst map[string]float64, prefix string, res *onepass.Result) {
	for _, name := range res.Counters.Names() {
		dst[prefix+name] = res.Counters.Get(name)
	}
}

func (r *opResult) addPool(res *onepass.Result) {
	r.poolClosures += res.Pool.Dispatched
	r.poolBusyNs += int64(res.Pool.Busy)
	r.poolMaxInFlight = max(r.poolMaxInFlight, res.Pool.MaxInFlight)
}

// runOp runs one op. With a tracer, the dataset's generator and the job's
// user functions are wrapped first.
func (w workloadSpec) runOp(o op, s seeds, tr *tracer) (opResult, error) {
	wl := newWorkload(o.job, s)
	data, job := dataset(wl), wl.Job
	if tr != nil {
		data.Gen = tr.wrapGen(data.Gen)
		job = tr.wrapJob(job)
	}
	cfg := w.config(o.eng)
	r := opResult{counters: map[string]float64{}}
	if w.delta {
		dr, err := onepass.RunDelta(cfg, data, job, s.deltaSpec())
		if err != nil {
			return r, err
		}
		r.checksum = dr.Incremental.OutputChecksum
		r.makespan = dr.Base.Makespan + dr.Incremental.Makespan
		addCounters(r.counters, "base:", dr.Base)
		addCounters(r.counters, "incremental:", dr.Incremental)
		r.addPool(dr.Base)
		r.addPool(dr.Incremental)
		st := dr.Stats
		r.delta = &st
		return r, nil
	}
	res, err := onepass.Run(cfg, data, job)
	if err != nil {
		return r, err
	}
	r.checksum = res.OutputChecksum
	r.makespan = res.Makespan
	addCounters(r.counters, "", res)
	r.addPool(res)
	return r, nil
}

// baseline is what every later run of an op must reproduce: the reference
// checksum and the warm-up run's makespan and counters.
type baseline struct {
	checksum uint64
	makespan onepass.Duration
	counters map[string]float64
}

// verify compares one run of an op with its baseline.
func (b baseline) verify(r opResult) error {
	switch {
	case r.checksum != b.checksum:
		return fmt.Errorf("output checksum %016x, want %016x", r.checksum, b.checksum)
	case r.makespan != b.makespan:
		return fmt.Errorf("makespan %v, want %v", r.makespan, b.makespan)
	case !maps.Equal(r.counters, b.counters):
		for k, v := range b.counters {
			if got, ok := r.counters[k]; !ok || got != v {
				return fmt.Errorf("counter %s = %v, want %v", k, got, v)
			}
		}
		return fmt.Errorf("counters %v, want %v", r.counters, b.counters)
	}
	return nil
}
