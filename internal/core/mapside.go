package core

import (
	"fmt"

	"onepass/internal/cluster"
	"onepass/internal/dfs"
	"onepass/internal/disk"
	"onepass/internal/engine"
	"onepass/internal/hashlib"
	"onepass/internal/kv"
	"onepass/internal/sim"
	"onepass/internal/trace"
)

// runMapTask is the hash engine's map side (§V's two options): (1) with no
// combiner, one scan partitions output with no grouping effort at all;
// (2) with a combiner, an in-memory hash table per partition performs
// partial aggregation (hybrid hash degrades to streaming flushes if the
// table outgrows the task budget). Either way there is no sort — that is
// the whole point. Output is persisted for fault tolerance (as in stock
// Hadoop) and then pushed eagerly to the reducers.
func runMapTask(rt *engine.Runtime, p *sim.Proc, node *cluster.Node, job *engine.Job,
	costs engine.CostModel, b *dfs.Block, partition engine.Partitioner,
	channels []*engine.PushChannel, reg *engine.Registry, opts *Options,
	agg engine.Aggregator, mapCombined bool) {

	chunks := buildMapChunks(rt, p, node, job, costs, b, partition, opts, agg, mapCombined)
	R := job.Reducers
	// Persist the map output for fault tolerance as one indexed file
	// (charging the synchronous write), then push.
	store := node.ScratchStore()
	out := engine.NewMapOutput(p, store,
		fmt.Sprintf("%s/hashmap-%05d/file.out", job.Name, b.Index),
		b.Index, node.ID, R,
		func(r int) []byte { return concatChunks(chunks[r]) })
	outBytes := out.File.Size()
	node.Compute(p, engine.Dur(float64(outBytes), costs.SerializeNsPerByte), engine.PhaseMapFn)
	rt.Counters.Add(engine.CtrMapWrittenBytes, float64(outBytes))
	if rt.Tracing() {
		rt.Emit(trace.OutputWrite, "map-output", node.ID, b.Index, 0,
			trace.Num("bytes", float64(outBytes)))
	}
	// Completion is registered only after the push loop below resolves
	// which partitions were fully delivered, so pull-side reducers never
	// see a stale Pushed flag.
	defer reg.Complete(out)

	if opts.DisablePush {
		if rt.Auditing() {
			// Pull-only mode: whole partitions move through FetchPart, so
			// record each as one produced unit like the sort-merge engine.
			for r, n := range out.PartLen {
				rt.Audit.ShuffleProduced(node.ID, b.Index, r, -1, n)
			}
		}
		return
	}
	// Eager push with a non-blocking fallback: the moment a reducer's queue
	// refuses a chunk, the rest of that partition is staged as a "leftover"
	// file the reducer pulls later. The mapper never stalls — unlike HOP's
	// adaptive wait, the hash engine's push is best-effort because the
	// persisted copy already guarantees delivery.
	out.Leftover = make([]*disk.File, R)
	for r := 0; r < R; r++ {
		toNode := rt.ReducerNode(r).ID
		var leftover []byte
		for i, c := range chunks[r] {
			if !channels[r].TryPush(p, node.ID, toNode, b.Index, i, c) {
				leftover = concatChunks(chunks[r][i:])
				break
			}
			// Delivered counts gate what a re-execution regenerates: a
			// recovered output serves only the undelivered tail.
			out.Delivered[r] = i + 1
		}
		if leftover == nil {
			out.Pushed[r] = true
			continue
		}
		lf := store.Create(fmt.Sprintf("%s/hashmap-%05d/leftover-%05d", job.Name, b.Index, r), false)
		store.Append(p, lf, leftover)
		rt.Counters.Add(engine.CtrMapSpillBytes, float64(len(leftover)))
		if rt.Auditing() {
			// The staged tail reaches its reducer through a pull fetch, so it
			// belongs in the shuffle ledger (as the partition's seq -1 unit),
			// not the spill ledger — the read-back happens remotely.
			rt.Audit.ShuffleProduced(node.ID, b.Index, r, -1, int64(len(leftover)))
		}
		if rt.Tracing() {
			rt.Emit(trace.Spill, "leftover", node.ID, b.Index, 0,
				trace.Num("bytes", float64(len(leftover))), trace.Num("reducer", float64(r)))
		}
		out.Leftover[r] = lf
	}
	// Every partition is now either push-delivered or staged in a leftover
	// file; the persisted copy served its fault-tolerance write and can be
	// released to bound host memory.
	out.ReleaseFile()
}

// buildMapChunks runs the map-side data path and returns the per-partition
// chunk lists. It is deterministic in the block and options, so a recovery
// attempt on another node reproduces the exact chunk boundaries and
// contents of the lost attempt.
func buildMapChunks(rt *engine.Runtime, p *sim.Proc, node *cluster.Node, job *engine.Job,
	costs engine.CostModel, b *dfs.Block, partition engine.Partitioner, opts *Options,
	agg engine.Aggregator, mapCombined bool) [][][]byte {

	R := job.Reducers
	chunks := make([][][]byte, R) // per partition: encoded chunks <= ChunkBytes
	cur := make([][]byte, R)
	auditing := rt.Auditing()
	var finalPairBytes int64
	// The plain partitioning scan copies the whole record stream through, so
	// each partition's encoded volume is known before its first chunk opens
	// (pending holds what is still to come). A chunk is preallocated at
	// min(ChunkBytes+1 KB, pending): room for a full chunk, which overshoots
	// ChunkBytes by its last pair, or exactly a partition's short tail.
	// Combined output comes from flush sweeps of unknown volume, so it keeps
	// plain append growth (pending stays nil).
	var pending []int64
	addPair := func(r int, key, val []byte) {
		if auditing {
			finalPairBytes += int64(len(key) + len(val))
		}
		if pending != nil {
			if cur[r] == nil {
				cur[r] = make([]byte, 0, min(opts.ChunkBytes+1<<10, pending[r]))
			}
			pending[r] -= int64(kv.EncodedSize(key, val))
		}
		cur[r] = kv.AppendPair(cur[r], key, val)
		if int64(len(cur[r])) >= opts.ChunkBytes {
			chunks[r] = append(chunks[r], cur[r])
			cur[r] = nil
		}
	}

	// Everything the chunk-building walk needs from the runtime is resolved
	// before dispatch: the walk itself (hash folds, flush sweeps, chunk
	// sealing) is pure data work, so it rides inside the map task's pooled
	// closure and overlaps the parse charge. The CPU charges and the
	// CombineFlush trace events land after the join.
	tj := rt.TaskJob(job)
	tAgg := agg
	if tj != job {
		tAgg, _ = jobAggregator(tj)
	}
	grouping := rt.TaskMemory(job)
	var n int
	var flushCounts []int
	buf, err := rt.ExecuteMapWith(p, node, tj, b, partition, func(buf *kv.Buffer) {
		if mapCombined {
			// Map-side hash aggregation: real hash tables, real states.
			tables := make([]*stateTable, R)
			for r := range tables {
				tables[r] = newStateTable(hashAtShared(1), tAgg, false)
			}
			used := func() int64 {
				var t int64
				for _, tb := range tables {
					t += tb.usedBytes()
				}
				return t
			}
			flushTables := func() {
				flushed := 0
				for r, tb := range tables {
					tb.iterate(func(k, s []byte) bool {
						addPair(r, k, s)
						flushed++
						return true
					})
					tb.reset()
				}
				flushCounts = append(flushCounts, flushed)
			}
			n = buf.Len()
			for i := 0; i < n; i++ {
				r := buf.Partition(i)
				tables[r].fold(buf.Key(i), buf.Val(i), formIncoming)
				if i%1024 == 1023 && used() > grouping {
					flushTables()
				}
			}
			flushTables()
		} else {
			// Option (1): single partitioning scan, no grouping at all.
			pending = make([]int64, R)
			for i := 0; i < buf.Len(); i++ {
				pending[buf.Partition(i)] += int64(kv.EncodedSize(buf.Key(i), buf.Val(i)))
			}
			for i := 0; i < buf.Len(); i++ {
				addPair(buf.Partition(i), buf.Key(i), buf.Val(i))
			}
		}
		for r := 0; r < R; r++ {
			if len(cur[r]) > 0 {
				chunks[r] = append(chunks[r], cur[r])
				cur[r] = nil
			}
		}
	})
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	if mapCombined {
		node.Compute(p, engine.Dur(float64(n), costs.HashNs), engine.PhaseHash)
		node.Compute(p, engine.Dur(float64(n), costs.UpdateNsPerRecord), engine.PhaseCombine)
		rt.Counters.Add(engine.CtrHashOps, float64(n))
		if rt.Tracing() {
			for _, flushed := range flushCounts {
				rt.Emit(trace.CombineFlush, "map-combine", node.ID, b.Index, 0,
					trace.Num("states", float64(flushed)))
			}
		}
	}
	if auditing {
		rt.Audit.MapFinalPairs(b.Index, finalPairBytes)
		if mapCombined {
			rt.Audit.CombineSaved(b.Index, buf.Bytes()-finalPairBytes)
		}
	}
	return chunks
}

// reexecMapOutput re-runs a lost map task's data path on node and builds a
// fresh output holding, per partition, only what the reducers still need:
// nothing for fully-pushed partitions, and the undelivered chunk tail
// (everything past lost.Delivered) for the rest.
func reexecMapOutput(rt *engine.Runtime, p *sim.Proc, node *cluster.Node, job *engine.Job,
	costs engine.CostModel, b *dfs.Block, partition engine.Partitioner, opts *Options,
	agg engine.Aggregator, mapCombined bool, lost *engine.MapOutput) *engine.MapOutput {

	chunks := buildMapChunks(rt, p, node, job, costs, b, partition, opts, agg, mapCombined)
	fresh := engine.NewMapOutput(p, node.ScratchStore(),
		fmt.Sprintf("%s/hashmap-%05d/reexec", job.Name, lost.TaskID),
		lost.TaskID, node.ID, job.Reducers,
		func(r int) []byte {
			if lost.WasPushed(r) {
				return nil
			}
			skip := min(lost.Delivered[r], len(chunks[r]))
			return concatChunks(chunks[r][skip:])
		})
	node.Compute(p, engine.Dur(float64(fresh.File.Size()), costs.SerializeNsPerByte), engine.PhaseMapFn)
	// Chunks delivered before the failure stay delivered; the pull fetch of
	// the recovered partition covers exactly the rest.
	fresh.Pushed = append([]bool(nil), lost.Pushed...)
	fresh.Delivered = append([]int(nil), lost.Delivered...)
	return fresh
}

// concatChunks joins chunks into one buffer sized to their total length.
func concatChunks(chunks [][]byte) []byte {
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	enc := make([]byte, 0, total)
	for _, c := range chunks {
		enc = append(enc, c...)
	}
	return enc
}

// hashAtShared returns hash family member i from hashlib's immutable
// process-wide cache; the family is deterministic, so every task sees the
// same function without rebuilding its tables.
func hashAtShared(i int) *hashlib.Func {
	return hashlib.Shared(HashSeed, i)
}
