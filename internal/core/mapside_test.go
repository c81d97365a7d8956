package core

import (
	"testing"

	"onepass/internal/engine"
	"onepass/internal/enginetest"
	"onepass/internal/hadoop"
	"onepass/internal/kv"
	"onepass/internal/sim"
	"onepass/internal/workloads"
)

// uncombinedMapChunks runs the map side of one sessionization block (a
// list-state job, so no map-side combining) and returns its chunks.
func uncombinedMapChunks(t *testing.T, reducers int, opts *Options) [][][]byte {
	t.Helper()
	f := enginetest.New(t, workloads.Sessionization(smallClicks()), enginetest.Config{Reducers: reducers})
	job := f.Job
	agg, mapCombined := jobAggregator(&job)
	if mapCombined {
		t.Fatal("sessionization must take the uncombined map path")
	}
	blocks, err := f.RT.InputBlocks(job.InputPath)
	if err != nil {
		t.Fatal(err)
	}
	var chunks [][][]byte
	f.RT.Env.Go("map", func(p *sim.Proc) {
		chunks = buildMapChunks(f.RT, p, f.RT.Cluster.Node(0), &job, engine.DefaultCosts(),
			blocks[0], hadoop.Partitioner(), opts, agg, false)
	})
	f.RT.Env.Run()
	return chunks
}

// An uncombined map task's chunks are sized to their partition's bytes, not
// preallocated at ChunkBytes: pushed chunks sit in reducer queues, so their
// capacity is the engine's shuffle-side heap.
func TestUncombinedMapChunksSizedToPartition(t *testing.T) {
	const R = 20
	opts := &Options{}
	opts.defaults()
	chunks := uncombinedMapChunks(t, R, opts)
	var length, capacity int
	for r, cs := range chunks {
		total := 0
		for _, c := range cs {
			total += len(c)
			capacity += cap(c)
		}
		if int64(total) >= opts.ChunkBytes {
			t.Fatalf("partition %d holds %d bytes; the test needs partitions below ChunkBytes", r, total)
		}
		length += total
	}
	if length == 0 {
		t.Fatal("map task produced no output")
	}
	if limit := length + R<<10; capacity > limit {
		t.Fatalf("chunk capacity %d for %d encoded bytes, want <= %d", capacity, length, limit)
	}
}

// Sizing changes capacity only: chunks keep their boundaries when a
// partition spans several, and every chunk but the last reaches ChunkBytes.
func TestUncombinedMapChunkBoundaries(t *testing.T) {
	opts := &Options{ChunkBytes: 4 << 10}
	opts.defaults()
	chunks := uncombinedMapChunks(t, 2, opts)
	for r, cs := range chunks {
		if len(cs) < 2 {
			t.Fatalf("partition %d has %d chunks; the test needs several", r, len(cs))
		}
		for i, c := range cs {
			if i < len(cs)-1 && int64(len(c)) < opts.ChunkBytes {
				t.Fatalf("partition %d chunk %d sealed at %d bytes, below ChunkBytes", r, i, len(c))
			}
			// Sealing happens at the first pair that reaches ChunkBytes, so
			// dropping the last pair must leave the chunk below it.
			var last int
			for rest := c; len(rest) > 0; {
				_, _, n := kv.DecodePair(rest)
				if n == 0 {
					t.Fatalf("partition %d chunk %d ends in a partial pair", r, i)
				}
				last, rest = n, rest[n:]
			}
			if int64(len(c)-last) >= opts.ChunkBytes {
				t.Fatalf("partition %d chunk %d overran ChunkBytes before its last pair", r, i)
			}
		}
	}
}
