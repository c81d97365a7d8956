package kv

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func BenchmarkAppendDecodePair(b *testing.B) {
	key, val := []byte("user-1234567"), []byte("869769600 /en/page/123")
	b.SetBytes(int64(EncodedSize(key, val)))
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = AppendPair(buf[:0], key, val)
		_, _, n := DecodePair(buf)
		if n == 0 {
			b.Fatal("decode failed")
		}
	}
}

func BenchmarkBufferSort64K(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	keys := make([][]byte, 1<<16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("u%07d", rng.Intn(1<<20)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		buf := NewBuffer(1 << 20)
		for j, k := range keys {
			buf.Add(j&15, k, []byte("1"))
		}
		b.StartTimer()
		var cmps int64
		buf.SortByPartitionKey(&cmps)
	}
}

func BenchmarkMergeStreams8Way(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	runs := make([][]byte, 8)
	for r := range runs {
		keys := make([]string, 4096)
		for i := range keys {
			keys[i] = fmt.Sprintf("u%07d", rng.Intn(1<<20))
		}
		sort.Strings(keys)
		var enc []byte
		for _, k := range keys {
			enc = AppendPair(enc, []byte(k), []byte("1"))
		}
		runs[r] = enc
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams := make([]PairStream, len(runs))
		for r, enc := range runs {
			streams[r] = NewSliceStream(enc)
		}
		n := 0
		MergeStreams(streams, nil, func(k, v []byte) { n++ })
		if n != 8*4096 {
			b.Fatal("merge lost records")
		}
	}
}
