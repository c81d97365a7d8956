package memtable

import (
	"fmt"
	"testing"

	"onepass/internal/hashlib"
)

func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user-%07d", i))
	}
	return keys
}

func BenchmarkTableAdd(b *testing.B) {
	keys := benchKeys(1 << 14)
	tb := NewTable(hashlib.NewFamily(1).New(), NewArena(0), 1<<14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Add(keys[i&(1<<14-1)], 1)
	}
}

func BenchmarkTableGet(b *testing.B) {
	keys := benchKeys(1 << 14)
	tb := NewTable(hashlib.NewFamily(1).New(), NewArena(0), 1<<14)
	for _, k := range keys {
		tb.Put(k, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Get(keys[i&(1<<14-1)])
	}
}

func BenchmarkArenaCopy(b *testing.B) {
	a := NewArena(0)
	payload := make([]byte, 48)
	b.SetBytes(48)
	for i := 0; i < b.N; i++ {
		if i&(1<<16-1) == 0 {
			a.Reset() // bound memory across the run
		}
		_ = a.Copy(payload)
	}
}
