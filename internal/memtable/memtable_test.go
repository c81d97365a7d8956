package memtable

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"onepass/internal/hashlib"
)

func newTable(cap int) *Table {
	return NewTable(hashlib.NewFamily(1).New(), NewArena(0), cap)
}

func TestArenaAllocAndCopy(t *testing.T) {
	a := NewArena(128)
	b1 := a.alloc(10)
	if len(b1) != 10 {
		t.Fatalf("len = %d", len(b1))
	}
	src := []byte("hello")
	c := a.Copy(src)
	src[0] = 'X'
	if string(c) != "hello" {
		t.Fatalf("copy aliased source: %q", c)
	}
	if a.Used() != 15 {
		t.Fatalf("used = %d", a.Used())
	}
	if a.Copy(nil) != nil || a.alloc(0) != nil {
		t.Fatal("empty alloc should be nil")
	}
}

func TestArenaOversizedAllocation(t *testing.T) {
	a := NewArena(64)
	big := a.alloc(1000)
	if len(big) != 1000 {
		t.Fatalf("len = %d", len(big))
	}
	if a.Footprint() < 1000 {
		t.Fatalf("footprint = %d", a.Footprint())
	}
}

func TestArenaAllocationsDoNotOverlap(t *testing.T) {
	a := NewArena(64)
	x := a.alloc(10)
	y := a.alloc(10)
	for i := range x {
		x[i] = 1
	}
	for i := range y {
		y[i] = 2
	}
	for i := range x {
		if x[i] != 1 {
			t.Fatal("allocations overlap")
		}
	}
	// Appending to x must not clobber y (capacity is clipped).
	_ = append(x, 9, 9, 9)
	for i := range y {
		if y[i] != 2 {
			t.Fatal("append through earlier allocation clobbered later one")
		}
	}
}

func TestArenaReset(t *testing.T) {
	a := NewArena(64)
	a.alloc(100)
	a.Reset()
	if a.Used() != 0 || a.Footprint() != 0 {
		t.Fatal("reset must clear accounting")
	}
}

// A default arena holding a few bytes must not reserve a full slab: the
// map-side combiner keeps one arena per partition per task.
func TestArenaFootprintFollowsData(t *testing.T) {
	a := NewArena(0)
	a.Copy([]byte("0123456789"))
	if fp := a.Footprint(); fp > 4<<10 {
		t.Fatalf("footprint after a 10-byte copy = %d, want <= 4096", fp)
	}
	payload := make([]byte, 10)
	for a.Used() < 100<<10 {
		a.Copy(payload)
	}
	if fp, used := a.Footprint(), a.Used(); fp > 2*used+minSlabSize {
		t.Fatalf("footprint %d for %d used bytes: slabs must grow geometrically", fp, used)
	}
}

// Reset leaves slab bytes alone (no memclr per flush), and a refill over the
// stale bytes still returns exact copies.
func TestArenaResetRecyclesWithoutZeroing(t *testing.T) {
	a := NewArena(0)
	old := []byte("stale-bytes-stale-bytes")
	stale := a.Copy(old)
	fp := a.Footprint()
	a.Reset()
	if !bytes.Equal(stale, old) {
		t.Fatalf("Reset rewrote slab bytes: %q", stale)
	}
	var srcs, copies [][]byte
	for i := 0; i < 20; i++ {
		src := []byte(fmt.Sprintf("k%d", i))
		srcs = append(srcs, src)
		copies = append(copies, a.Copy(src))
	}
	for i := range srcs {
		if !bytes.Equal(copies[i], srcs[i]) {
			t.Fatalf("copy %d = %q, want %q", i, copies[i], srcs[i])
		}
	}
	if a.Footprint() != fp {
		t.Fatalf("refill footprint = %d, want the recycled %d", a.Footprint(), fp)
	}
}

// A request larger than the next doubled slab gets a slab that fits it, and
// a recycled slab too small for a request is skipped, not overrun.
func TestArenaLargeRequestAfterReset(t *testing.T) {
	a := NewArena(0)
	a.Copy([]byte("x"))
	a.Reset()
	big := bytes.Repeat([]byte("ab"), 1500)
	c := a.Copy(big)
	if !bytes.Equal(c, big) {
		t.Fatal("large copy corrupted")
	}
	if fp := a.Footprint(); fp < int64(len(big)) || fp > 8<<10 {
		t.Fatalf("footprint = %d for a %d-byte copy", fp, len(big))
	}
}

func TestTablePutGet(t *testing.T) {
	tb := newTable(4)
	tb.Put([]byte("a"), 1)
	tb.Put([]byte("b"), 2)
	tb.Put([]byte("a"), 3) // overwrite
	if v, ok := tb.Get([]byte("a")); !ok || v != 3 {
		t.Fatalf("a = %d,%v", v, ok)
	}
	if v, ok := tb.Get([]byte("b")); !ok || v != 2 {
		t.Fatalf("b = %d,%v", v, ok)
	}
	if _, ok := tb.Get([]byte("c")); ok {
		t.Fatal("missing key found")
	}
	if tb.Len() != 2 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestTableAdd(t *testing.T) {
	tb := newTable(4)
	if got := tb.Add([]byte("k"), 5); got != 5 {
		t.Fatalf("first add = %d", got)
	}
	if got := tb.Add([]byte("k"), 7); got != 12 {
		t.Fatalf("second add = %d", got)
	}
}

func TestTableUpsertNewFlag(t *testing.T) {
	tb := newTable(4)
	if !tb.Upsert([]byte("x"), func(old uint64, exists bool) uint64 {
		if exists {
			t.Error("first upsert must see exists=false")
		}
		return 1
	}) {
		t.Fatal("first upsert must report new")
	}
	if tb.Upsert([]byte("x"), func(old uint64, exists bool) uint64 {
		if !exists || old != 1 {
			t.Errorf("second upsert saw old=%d exists=%v", old, exists)
		}
		return 2
	}) {
		t.Fatal("second upsert must not report new")
	}
}

func TestTableDelete(t *testing.T) {
	tb := newTable(4)
	tb.Put([]byte("a"), 1)
	tb.Put([]byte("b"), 2)
	if !tb.Delete([]byte("a")) {
		t.Fatal("delete existing failed")
	}
	if tb.Delete([]byte("a")) {
		t.Fatal("double delete should fail")
	}
	if _, ok := tb.Get([]byte("a")); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := tb.Get([]byte("b")); !ok || v != 2 {
		t.Fatal("surviving key broken after delete")
	}
	// Reinsert after tombstone.
	tb.Put([]byte("a"), 9)
	if v, ok := tb.Get([]byte("a")); !ok || v != 9 {
		t.Fatal("reinsert after tombstone failed")
	}
	if tb.Len() != 2 {
		t.Fatalf("len = %d", tb.Len())
	}
}

func TestTableSetValue(t *testing.T) {
	tb := newTable(4)
	tb.Put([]byte("a"), 1)
	if !tb.SetValue([]byte("a"), 42) {
		t.Fatal("SetValue on existing failed")
	}
	if tb.SetValue([]byte("zz"), 1) {
		t.Fatal("SetValue on missing should fail")
	}
	if v, _ := tb.Get([]byte("a")); v != 42 {
		t.Fatalf("v = %d", v)
	}
}

func TestTableGrowthKeepsAllKeys(t *testing.T) {
	tb := newTable(4)
	const n = 10000
	for i := 0; i < n; i++ {
		tb.Put([]byte(fmt.Sprintf("key-%d", i)), uint64(i))
	}
	if tb.Len() != n {
		t.Fatalf("len = %d", tb.Len())
	}
	for i := 0; i < n; i++ {
		if v, ok := tb.Get([]byte(fmt.Sprintf("key-%d", i))); !ok || v != uint64(i) {
			t.Fatalf("key-%d = %d,%v", i, v, ok)
		}
	}
}

func TestTableIterateVisitsAllLiveKeys(t *testing.T) {
	tb := newTable(4)
	want := map[string]uint64{"a": 1, "b": 2, "c": 3}
	for k, v := range want {
		tb.Put([]byte(k), v)
	}
	tb.Delete([]byte("b"))
	got := map[string]uint64{}
	tb.Iterate(func(k []byte, v uint64) bool {
		got[string(k)] = v
		return true
	})
	if len(got) != 2 || got["a"] != 1 || got["c"] != 3 {
		t.Fatalf("iterate = %v", got)
	}
	// Early termination.
	calls := 0
	tb.Iterate(func(k []byte, v uint64) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("early stop visited %d", calls)
	}
}

func TestTableUsedBytesGrows(t *testing.T) {
	tb := newTable(4)
	before := tb.UsedBytes()
	for i := 0; i < 100; i++ {
		tb.Put([]byte(fmt.Sprintf("key-%d", i)), 0)
	}
	if tb.UsedBytes() <= before {
		t.Fatal("UsedBytes must grow with inserts")
	}
}

// Property: the table behaves exactly like map[string]uint64 under a random
// operation sequence of puts, adds, and deletes.
func TestTableModelProperty(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
		Val  uint64
	}
	f := func(ops []op) bool {
		tb := newTable(4)
		model := map[string]uint64{}
		for _, o := range ops {
			key := []byte(fmt.Sprintf("k%d", o.Key%32))
			switch o.Kind % 3 {
			case 0:
				tb.Put(key, o.Val)
				model[string(key)] = o.Val
			case 1:
				tb.Add(key, o.Val)
				model[string(key)] += o.Val
			case 2:
				delete(model, string(key))
				tb.Delete(key)
			}
		}
		if tb.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := tb.Get([]byte(k))
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
