package skiplist

import (
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"

	"hohtx/internal/arena"
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

// enumerates checks that words, a type's one enumeration of its cells,
// visits every stm.Word the struct v points to declares, once.
func enumerates(t *testing.T, name string, v any, words func(func(*stm.Word, uint64), uint64)) {
	t.Helper()
	seen := map[*stm.Word]int{}
	words(func(w *stm.Word, _ uint64) { seen[w]++ }, 0)
	if want := cellsIn(reflect.TypeOf(v).Elem()); len(seen) != want {
		t.Fatalf("%s: words visits %d distinct cells, the struct declares %d", name, len(seen), want)
	}
	for w, times := range seen {
		if times != 1 {
			t.Errorf("%s: cell at %p visited %d times", name, w, times)
		}
	}
}

// TestWordsEnumerateEveryCell: the node's and the tower's one enumeration
// visits every stm.Word the struct declares, once. Retire, poison and
// sentinel initialization are all derived from it, so a field added to
// either and forgotten there is a cell no free ever fences.
func TestWordsEnumerateEveryCell(t *testing.T) {
	var n node
	enumerates(t, "node", &n, n.words)
	var tw tower
	enumerates(t, "tower", &tw, tw.words)
}

// TestNodeLayout pins the node's slot: its cells and nothing else — no
// pad — with the cells a descent reads on every visit (the key and the
// links below nodeLevels) first, then the tower cell a tower-level visit
// reads, then height and dead. A slot is 8 + 16 × (nodeLevels + 4) bytes:
// 136 at nodeLevels 4, where the node that held every level took 440.
func TestNodeLayout(t *testing.T) {
	var n node
	const cell = unsafe.Sizeof(stm.Word{})
	if got, want := unsafe.Sizeof(n), (nodeLevels+4)*cell; got != want {
		t.Fatalf("node is %d bytes, want %d: its cells and no pad", got, want)
	}
	for _, f := range []struct {
		name string
		off  uintptr
		want uintptr
	}{
		{"key", unsafe.Offsetof(n.key), 0},
		{"next", unsafe.Offsetof(n.next), cell},
		{"tower", unsafe.Offsetof(n.tower), (1 + nodeLevels) * cell},
		{"height", unsafe.Offsetof(n.height), (2 + nodeLevels) * cell},
		{"dead", unsafe.Offsetof(n.dead), (3 + nodeLevels) * cell},
	} {
		if f.off != f.want {
			t.Errorf("node.%s at byte %d, want %d", f.name, f.off, f.want)
		}
	}
	if got, want := unsafe.Sizeof(tower{}), (MaxHeight-nodeLevels)*cell; got != want {
		t.Fatalf("tower is %d bytes, want %d", got, want)
	}
}

// fencedAndPoisoned checks every cell words enumerates for a version at
// or above fence and, when poison is set, the poison sentinel.
func fencedAndPoisoned(t *testing.T, name string, words func(func(*stm.Word, uint64), uint64), fence uint64, poison bool) {
	t.Helper()
	cells := 0
	words(func(w *stm.Word, _ uint64) {
		cells++
		// The version lock is the cell's first word (stm.Word).
		if ver := atomic.LoadUint64((*uint64)(unsafe.Pointer(w))); ver < fence {
			t.Errorf("%s: cell %d: version %d below the fence %d", name, cells, ver, fence)
		}
		if poison && w.Raw() != arena.PoisonWord {
			t.Errorf("%s: cell %d: value %#x, not poisoned", name, cells, w.Raw())
		}
	}, 0)
	if cells == 0 {
		t.Errorf("%s: no cells", name)
	}
}

// TestFreeFencesAndPoisonsEveryCell: with the guard on, freeing a node, or
// a tower, leaves every cell poisoned with its version lifted to the
// fence; and freeing a node frees its tower with it.
func TestFreeFencesAndPoisonsEveryCell(t *testing.T) {
	cfg := Config{Threads: 1, Guard: true, GuardSink: func(arena.GuardEvent) {}}
	s := New(cfg)
	h := s.Ar.Alloc(0)
	s.RT.TickVersionFence()
	fence := s.RT.VersionFence()
	s.Ar.Free(0, h)
	fencedAndPoisoned(t, "node", s.Ar.At(h).words, fence, true)

	th := s.towers.Alloc(0)
	s.RT.TickVersionFence()
	fence = s.RT.VersionFence()
	s.towers.Free(0, th)
	fencedAndPoisoned(t, "tower", s.towers.At(th).words, fence, true)

	// A tall node's free: its tower goes too, fenced and poisoned.
	h, th = s.Ar.Alloc(0), s.towers.Alloc(0)
	s.Ar.At(h).tower.Init(uint64(th))
	s.RT.TickVersionFence()
	fence = s.RT.VersionFence()
	s.Ar.Free(0, h)
	if s.towers.Live(th) {
		t.Fatal("freeing a tall node left its tower allocated")
	}
	fencedAndPoisoned(t, "node's tower", s.towers.At(th).words, fence, true)
}

// TestFreeClearsTheTowerCell: without the guard nothing poisons, so the
// free itself leaves Nil in the node's tower cell; a later free of the
// same slot, before anything wrote the cell back, frees no tower.
func TestFreeClearsTheTowerCell(t *testing.T) {
	s := New(Config{Threads: 1})
	h, th := s.Ar.Alloc(0), s.towers.Alloc(0)
	s.Ar.At(h).tower.Init(uint64(th))
	s.Ar.Free(0, h)
	if got := s.Ar.At(h).tower.Raw(); got != uint64(arena.Nil) {
		t.Fatalf("tower cell %#x after the free, want Nil", got)
	}
	live := s.towers.Stats().Live
	s.Ar.Free(0, s.Ar.Alloc(0)) // the same slot, back from the magazine
	if got := s.towers.Stats().Live; got != live {
		t.Fatalf("a free of the recycled slot moved tower live %d -> %d", live, got)
	}
}
