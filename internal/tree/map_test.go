package tree

import (
	"math/rand"
	"sync"
	"testing"

	"hohtx/internal/core"
	"hohtx/internal/reclaim"
)

func TestMapBasics(t *testing.T) {
	for _, mode := range []reclaim.Mode{reclaim.ModeRR, reclaim.ModeHTM} {
		m := NewMap(Config{Mode: mode, RRKind: core.KindV, Threads: 1, Window: core.Window{W: 4}})
		t.Run(m.Name(), func(t *testing.T) {
			m.Register(0)
			if _, ok := m.Get(0, 7); ok {
				t.Fatal("get on empty map")
			}
			if prev, existed := m.Put(0, 7, 700); existed || prev != 0 {
				t.Fatalf("first put: (%d,%v)", prev, existed)
			}
			if v, ok := m.Get(0, 7); !ok || v != 700 {
				t.Fatalf("get = (%d,%v)", v, ok)
			}
			if prev, existed := m.Put(0, 7, 701); !existed || prev != 700 {
				t.Fatalf("overwrite: (%d,%v)", prev, existed)
			}
			if v, ok := m.Get(0, 7); !ok || v != 701 {
				t.Fatalf("get after overwrite = (%d,%v)", v, ok)
			}
			if v, ok := m.Delete(0, 7); !ok || v != 701 {
				t.Fatalf("delete = (%d,%v)", v, ok)
			}
			if _, ok := m.Get(0, 7); ok {
				t.Fatal("get after delete")
			}
			if _, ok := m.Delete(0, 7); ok {
				t.Fatal("double delete")
			}
		})
	}
}

func TestMapVsModel(t *testing.T) {
	m := NewMap(Config{Mode: reclaim.ModeRR, RRKind: core.KindXO, Threads: 1, Window: core.Window{W: 3}})
	m.Register(0)
	rng := rand.New(rand.NewSource(31))
	model := map[uint64]uint64{}
	for i := 0; i < 4000; i++ {
		key := uint64(rng.Intn(128)) + 1
		switch rng.Intn(3) {
		case 0:
			val := rng.Uint64() >> 1
			prev, existed := m.Put(0, key, val)
			mv, mok := model[key]
			if existed != mok || (mok && prev != mv) {
				t.Fatalf("op %d: Put(%d) = (%d,%v), model (%d,%v)", i, key, prev, existed, mv, mok)
			}
			model[key] = val
		case 1:
			got, ok := m.Delete(0, key)
			mv, mok := model[key]
			if ok != mok || (mok && got != mv) {
				t.Fatalf("op %d: Delete(%d) = (%d,%v), model (%d,%v)", i, key, got, ok, mv, mok)
			}
			delete(model, key)
		default:
			got, ok := m.Get(0, key)
			mv, mok := model[key]
			if ok != mok || (mok && got != mv) {
				t.Fatalf("op %d: Get(%d) = (%d,%v), model (%d,%v)", i, key, got, ok, mv, mok)
			}
		}
	}
	keys, vals := m.Entries()
	if len(keys) != len(model) {
		t.Fatalf("entries = %d, model = %d", len(keys), len(model))
	}
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			t.Fatal("entries not sorted")
		}
		if model[k] != vals[i] {
			t.Fatalf("entry %d: val %d, model %d", k, vals[i], model[k])
		}
	}
	if m.Len() != len(model) {
		t.Fatalf("Len = %d", m.Len())
	}
}

// TestMapConcurrentPerKeyMonotonic: writers publish increasing values per
// key; readers must never observe a value going backwards.
func TestMapConcurrentPerKeyMonotonic(t *testing.T) {
	const threads = 4
	const keys = 8
	m := NewMap(Config{Mode: reclaim.ModeRR, RRKind: core.KindV, Threads: threads, Window: core.Window{W: 4}})
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// One writer per key publishes val = round*keys + key (monotonic).
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(tid int) {
			defer writers.Done()
			m.Register(tid)
			for round := uint64(1); round <= 600; round++ {
				for k := uint64(0); k < keys; k++ {
					if int(k)%2 == tid {
						m.Put(tid, k+1, round*keys+k)
					}
				}
			}
		}(w)
	}
	var bad int
	readers.Add(1)
	go func(tid int) {
		defer readers.Done()
		m.Register(tid)
		lastSeen := make([]uint64, keys+1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for k := uint64(1); k <= keys; k++ {
				if v, ok := m.Get(tid, k); ok {
					if v < lastSeen[k] {
						bad++
						return
					}
					lastSeen[k] = v
				}
			}
		}
	}(2)
	writers.Wait()
	close(stop)
	readers.Wait()
	if bad != 0 {
		t.Fatal("a reader observed a value moving backwards")
	}
}
