// Package memtable is the paper's byte-array memory-management library
// (§V): an arena allocator and an open-addressing hash table whose keys live
// in arena slabs. The point in the paper was to avoid per-object JVM
// overhead; here it gives the same flat-memory layout plus the exact byte
// accounting the hash engines need to decide when a reducer's in-memory
// state exceeds its budget and something must spill.
package memtable

// Arena is a slab allocator. Allocations are never freed individually;
// Reset recycles all slabs at once (the lifetime pattern of a task's
// in-memory state). Slabs start at minSlabSize and double up to the arena's
// slab size, so the footprint follows the bytes actually held: a table with
// a few hundred bytes of keys costs a 1 KB slab, not a full-size one.
type Arena struct {
	slabSize int      // largest standard slab
	slabs    [][]byte // standard slabs in allocation order, kept across Reset
	inUse    int      // slabs[:inUse] back allocations made since the last Reset
	big      [][]byte // dedicated slabs for oversized requests, dropped by Reset
	cur      []byte   // unallocated tail of slabs[inUse-1]
	used     int64
}

// DefaultSlabSize is 256 KB: the cap slabs double up to, big enough to
// amortize slab overhead for a table holding megabytes of keys.
const DefaultSlabSize = 256 << 10

// minSlabSize is the first slab's size.
const minSlabSize = 1 << 10

// NewArena returns an arena with the given slab size (DefaultSlabSize if
// slabSize <= 0).
func NewArena(slabSize int) *Arena {
	if slabSize <= 0 {
		slabSize = DefaultSlabSize
	}
	return &Arena{slabSize: slabSize}
}

// alloc returns an n-byte slice inside the arena. Its contents are
// unspecified: recycled slabs are not zeroed.
func (a *Arena) alloc(n int) []byte {
	if n <= 0 {
		return nil
	}
	a.used += int64(n)
	if n > a.slabSize {
		slab := make([]byte, n)
		a.big = append(a.big, slab)
		return slab
	}
	if len(a.cur) < n {
		a.cur = a.nextSlab(n)
	}
	out := a.cur[:n:n]
	a.cur = a.cur[n:]
	return out
}

// nextSlab returns the next slab with room for n bytes: the next recycled
// slab that fits, else a new one twice the size of the last (capped at the
// slab size).
func (a *Arena) nextSlab(n int) []byte {
	for a.inUse < len(a.slabs) {
		s := a.slabs[a.inUse]
		a.inUse++
		if len(s) >= n {
			return s
		}
	}
	size := min(minSlabSize, a.slabSize)
	if k := len(a.slabs); k > 0 {
		size = min(2*len(a.slabs[k-1]), a.slabSize)
	}
	for size < n {
		size = min(2*size, a.slabSize)
	}
	s := make([]byte, size)
	a.slabs = append(a.slabs, s)
	a.inUse++
	return s
}

// Copy allocates and fills a copy of b.
func (a *Arena) Copy(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := a.alloc(len(b))
	copy(out, b)
	return out
}

// Used returns total bytes handed out since the last Reset.
func (a *Arena) Used() int64 { return a.used }

// Footprint returns the slab bytes backing allocations made since the last
// Reset.
func (a *Arena) Footprint() int64 {
	var t int64
	for _, s := range a.slabs[:a.inUse] {
		t += int64(len(s))
	}
	for _, s := range a.big {
		t += int64(len(s))
	}
	return t
}

// Reset discards all allocations. Previously returned slices must no longer
// be used. Standard slabs are kept, unzeroed, and refilled in order;
// oversized dedicated slabs are released to the garbage collector.
func (a *Arena) Reset() {
	clear(a.big)
	a.big = a.big[:0]
	a.inUse = 0
	a.cur = nil
	a.used = 0
}
