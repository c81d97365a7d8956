package memtable

import (
	"onepass/internal/hashlib"
)

// Table is an open-addressing (linear probing) hash table from byte-string
// keys to a caller-defined uint64 value — a counter, a packed pair, or an
// index into caller-side state. Keys are copied into the arena once on first insert.
// Deletion uses tombstones so the hot-key engine can evict cold keys.
type Table struct {
	h     *hashlib.Func
	arena *Arena

	entries []entry
	live    int
	tombs   int
}

type entryState uint8

const (
	empty entryState = iota
	occupied
	tombstone
)

type entry struct {
	hash  uint64
	key   []byte
	val   uint64
	state entryState
}

const entryOverhead = 8 + 24 + 8 + 1 // approximate per-slot bytes for accounting

// NewTable returns a table using hash function h and key storage in arena.
func NewTable(h *hashlib.Func, arena *Arena, initialCap int) *Table {
	capacity := 16
	for capacity < initialCap {
		capacity *= 2
	}
	return &Table{h: h, arena: arena, entries: make([]entry, capacity)}
}

// Len returns the number of live keys.
func (t *Table) Len() int { return t.live }

// UsedBytes approximates the table's memory footprint: slot array plus key
// bytes in the arena. Engines compare this against the task memory budget.
func (t *Table) UsedBytes() int64 {
	return int64(len(t.entries))*entryOverhead + t.arena.Used()
}

func (t *Table) probe(hash uint64, key []byte) (idx int, found bool) {
	mask := uint64(len(t.entries) - 1)
	i := hash & mask
	firstTomb := -1
	for {
		e := &t.entries[i]
		switch e.state {
		case empty:
			if firstTomb >= 0 {
				return firstTomb, false
			}
			return int(i), false
		case tombstone:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		case occupied:
			if e.hash == hash && bytesEqual(e.key, key) {
				return int(i), true
			}
		}
		i = (i + 1) & mask
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Get returns the value for key.
func (t *Table) Get(key []byte) (uint64, bool) {
	idx, found := t.probe(t.h.Hash(key), key)
	if !found {
		return 0, false
	}
	return t.entries[idx].val, true
}

// Put inserts or overwrites key with val.
func (t *Table) Put(key []byte, val uint64) {
	t.Upsert(key, func(old uint64, exists bool) uint64 { return val })
}

// Upsert applies f to the current value (or to 0 with exists=false) and
// stores the result. It returns true if the key was newly inserted.
func (t *Table) Upsert(key []byte, f func(old uint64, exists bool) uint64) bool {
	t.maybeGrow()
	hash := t.h.Hash(key)
	idx, found := t.probe(hash, key)
	e := &t.entries[idx]
	if found {
		e.val = f(e.val, true)
		return false
	}
	if e.state == tombstone {
		t.tombs--
	}
	*e = entry{hash: hash, key: t.arena.Copy(key), val: f(0, false), state: occupied}
	t.live++
	return true
}

// Add adds delta to key's value (starting from 0) and returns the new value.
func (t *Table) Add(key []byte, delta uint64) uint64 {
	var out uint64
	t.Upsert(key, func(old uint64, _ bool) uint64 {
		out = old + delta
		return out
	})
	return out
}

// Delete removes key, leaving a tombstone. It reports whether the key was
// present. The key's arena bytes are not reclaimed until the arena resets —
// the same trade the paper's byte-array design makes.
func (t *Table) Delete(key []byte) bool {
	idx, found := t.probe(t.h.Hash(key), key)
	if !found {
		return false
	}
	t.entries[idx].state = tombstone
	t.entries[idx].key = nil
	t.live--
	t.tombs++
	return true
}

// Iterate visits live entries in slot order until f returns false. The key
// slice aliases arena memory and must not be retained across a Reset.
func (t *Table) Iterate(f func(key []byte, val uint64) bool) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.state == occupied {
			if !f(e.key, e.val) {
				return
			}
		}
	}
}

// SetValue overwrites the value of an existing key; it reports whether the
// key was present.
func (t *Table) SetValue(key []byte, val uint64) bool {
	idx, found := t.probe(t.h.Hash(key), key)
	if !found {
		return false
	}
	t.entries[idx].val = val
	return true
}

// Reset empties the table in place: the slot array is cleared and kept, and
// the arena's slabs are recycled, so a reused table refills without
// reallocating. Keys previously returned by Iterate must not be retained.
func (t *Table) Reset() {
	for i := range t.entries {
		t.entries[i] = entry{}
	}
	t.live, t.tombs = 0, 0
	t.arena.Reset()
}

func (t *Table) maybeGrow() {
	if (t.live+t.tombs)*10 < len(t.entries)*7 {
		return
	}
	old := t.entries
	t.entries = make([]entry, len(old)*2)
	t.live, t.tombs = 0, 0
	for i := range old {
		e := &old[i]
		if e.state != occupied {
			continue
		}
		idx, _ := t.probe(e.hash, e.key)
		t.entries[idx] = *e
		t.live++
	}
}
