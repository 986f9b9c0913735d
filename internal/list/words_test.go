package list

import (
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"

	"hohtx/internal/arena"
	"hohtx/internal/reclaim"
	"hohtx/internal/stm"
)

// cellsIn counts the stm.Word cells a type declares, arrays included.
func cellsIn(t reflect.Type) int {
	switch {
	case t == reflect.TypeOf(stm.Word{}):
		return 1
	case t.Kind() == reflect.Array:
		return t.Len() * cellsIn(t.Elem())
	case t.Kind() == reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += cellsIn(t.Field(i).Type)
		}
		return n
	}
	return 0
}

// TestWordsEnumerateEveryCell: the node's one enumeration visits every
// stm.Word the struct declares, once. Retire, poison and sentinel
// initialization are all derived from it, so a field added to the node and
// forgotten there is a cell no free ever fences.
func TestWordsEnumerateEveryCell(t *testing.T) {
	var n node
	seen := map[*stm.Word]int{}
	n.words(func(w *stm.Word, _ uint64) { seen[w]++ }, 0)
	if want := cellsIn(reflect.TypeOf(&n).Elem()); len(seen) != want {
		t.Fatalf("words visits %d distinct cells, the struct declares %d", len(seen), want)
	}
	for w, times := range seen {
		if times != 1 {
			t.Errorf("cell at %p visited %d times", w, times)
		}
	}
}

// TestNodeLayout pins the node's slot: its five cells and nothing else —
// no pad, since the STM detects conflicts per Word — so a node is 80 B,
// its arena slot 88 B with the generation word, and a key of the singly
// linked list, one node, costs 88 B.
func TestNodeLayout(t *testing.T) {
	const cell = unsafe.Sizeof(stm.Word{})
	size := unsafe.Sizeof(node{})
	if cells := uintptr(cellsIn(reflect.TypeOf(node{}))); size != cells*cell || size != 80 {
		t.Fatalf("node is %d bytes, want 80: its %d cells and no pad", size, cells)
	}
	l := New(Config{Threads: 1})
	stride := slotStride(l.Ar)
	checkStride(t, "node", stride, 88)
	if got := uintptr(l.Books(0).PerKey) * stride; got != 88 {
		t.Errorf("a key costs %d B, want 88", got)
	}
}

// slotStride is the distance between consecutive slots of a's page 0,
// read off two fresh slots' addresses: the node and its generation word.
func slotStride[T any](a *arena.Arena[T]) uintptr {
	h0, h1 := a.Alloc(0), a.Alloc(0)
	defer a.Free(0, h0)
	defer a.Free(0, h1)
	d := int64(uintptr(unsafe.Pointer(a.At(h1)))) - int64(uintptr(unsafe.Pointer(a.At(h0))))
	return uintptr(d / (int64(h1.Index()) - int64(h0.Index())))
}

// checkStride fails t unless stride is want and not a power of two of
// 64 B or more: power-of-two strides alias in the L2's sets, and a pointer
// chase read 34.9 ns/hop at 128 B against 8.7-10.3 at 144-152 B
// (EXPERIMENTS.md, "What was not kept").
func checkStride(t *testing.T, name string, stride, want uintptr) {
	t.Helper()
	if stride != want {
		t.Errorf("%s: arena slot stride %d B, want %d", name, stride, want)
	}
	if stride >= 64 && stride&(stride-1) == 0 {
		t.Errorf("%s: arena slot stride %d B is a power of two of 64 B or more", name, stride)
	}
}

// TestFreeFencesAndPoisonsEveryCell: with the guard on, freeing a node
// leaves every cell poisoned with its version lifted to the fence, on every
// structure built over this node type.
func TestFreeFencesAndPoisonsEveryCell(t *testing.T) {
	cfg := Config{Threads: 1, Guard: true, GuardSink: func(arena.GuardEvent) {}}
	for name, c := range map[string]*reclaim.Chassis[node]{
		"singly": &New(cfg).Chassis,
		"doubly": &NewDoubly(cfg).Chassis,
		"hash":   NewHashTable(cfg, 4).Chassis,
	} {
		h := c.Ar.Alloc(0)
		c.RT.TickVersionFence()
		fence := c.RT.VersionFence()
		c.Ar.Free(0, h)
		cells := 0
		c.Ar.At(h).words(func(w *stm.Word, _ uint64) {
			cells++
			// The version lock is the cell's first word (stm.Word).
			if ver := atomic.LoadUint64((*uint64)(unsafe.Pointer(w))); ver < fence {
				t.Errorf("%s: cell %d: version %d below the fence %d", name, cells, ver, fence)
			}
			if w.Raw() != arena.PoisonWord {
				t.Errorf("%s: cell %d: value %#x, not poisoned", name, cells, w.Raw())
			}
		}, 0)
		if cells == 0 {
			t.Errorf("%s: no cells", name)
		}
	}
}
