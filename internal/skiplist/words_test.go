package skiplist

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

// TestFreeFencesAndPoisonsEveryCell: with the guard on, freeing a node
// leaves every cell poisoned with its version lifted to the fence, on every
// structure built over this node type.
func TestFreeFencesAndPoisonsEveryCell(t *testing.T) {
	cfg := Config{Threads: 1, Guard: true, GuardSink: func(arena.GuardEvent) {}}
	for name, c := range map[string]*reclaim.Chassis[node]{
		"skip": &New(cfg).Chassis,
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
