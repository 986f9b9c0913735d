package core

import (
	"testing"
	"unsafe"

	"hohtx/internal/pad"
	"hohtx/internal/stm"
)

// TestReservationFootprint pins what each kind's hash-indexed tables cost
// at the default Config, from the types' sizes and the tables' lengths: an
// ownership or version table is 16 B per cell (one stm.Word, no pad), and
// a bucket-list array is one 64-B entry per thread and per bucket, on a
// line-aligned array, so each entry keeps a cache line to itself. A pad
// put back on either grows a table and fails here.
func TestReservationFootprint(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.TableBits != 14 {
		t.Fatalf("default TableBits = %d, want 14", cfg.TableBits)
	}
	cells := 1 << cfg.TableBits
	ownBytes := func(tb *ownTable) uintptr {
		return uintptr(len(tb.cells)) * unsafe.Sizeof(tb.cells[0])
	}
	const kib = 1 << 10
	for k, tables := range map[Kind]int{KindXO: 1, KindSO: cfg.Assoc} {
		s := New(k, cfg).(*SO)
		if len(s.tables) != tables {
			t.Fatalf("%v: %d tables, want %d", k, len(s.tables), tables)
		}
		for i, tb := range s.tables {
			if len(tb.cells) != cells || ownBytes(tb) != 256*kib {
				t.Errorf("%v table %d: %d cells, %d B; want %d cells, 256 KiB", k, i, len(tb.cells), ownBytes(tb), cells)
			}
		}
	}
	v := New(KindV, cfg).(*V)
	if len(v.vers.cells) != cells || ownBytes(v.vers) != 256*kib {
		t.Errorf("RR-V: %d cells, %d B; want %d cells, 256 KiB", len(v.vers.cells), ownBytes(v.vers), cells)
	}

	if sz := unsafe.Sizeof(dmNode{}); sz != pad.CacheLine {
		t.Fatalf("dmNode is %d B, want one %d-B cache line", sz, pad.CacheLine)
	}
	for k, arrays := range map[Kind]int{KindDM: 1, KindSA: cfg.Assoc} {
		s := New(k, cfg).(*SA)
		if len(s.arrs) != arrays {
			t.Fatalf("%v: %d arrays, want %d", k, len(s.arrs), arrays)
		}
		want := uintptr(cfg.Threads+cells) * pad.CacheLine
		for i, a := range s.arrs {
			if got := uintptr(len(a.entries)) * unsafe.Sizeof(a.entries[0]); got != want {
				t.Errorf("%v array %d: %d B, want (%d + %d) × 64 = %d", k, i, got, cfg.Threads, cells, want)
			}
			if base := uintptr(unsafe.Pointer(&a.entries[0])); base%pad.CacheLine != 0 {
				t.Errorf("%v array %d: entries start at %#x, not on a cache line", k, i, base)
			}
		}
	}
}

// TestNoFalseRevocationWithinALine: two references whose cells share a
// 64-B line are as independent as any two. A thread holds a; a transaction
// Gets it, a Revoke of b commits while that transaction is open, and the
// transaction reserves a again and Gets it: both Gets return a and the one
// attempt commits. The STM detects conflicts per stm.Word, not per line,
// which is what lets the tables go unpadded; a Revoke that touched b's
// whole line would abort the attempt and revoke a.
func TestNoFalseRevocationWithinALine(t *testing.T) {
	for _, k := range []Kind{KindXO, KindSO, KindV} {
		t.Run(k.String(), func(t *testing.T) {
			r := New(k, Config{Threads: 2})
			var tb *ownTable
			switch r := r.(type) {
			case *SO:
				tb = r.table(0)
			case *V:
				tb = r.vers
			}
			a, b := sameLineRefs(t, tb)
			rt := stm.NewRuntime(stm.Profile{})
			r.Register(0)
			r.Register(1)
			rt.AtomicT(0, func(tx *stm.Tx) { r.Reserve(tx, 0, a) })
			var held, got uint64
			first := true // a retry must not revoke again, or a conflict would never end
			rt.AtomicT(0, func(tx *stm.Tx) {
				held = r.Get(tx, 0)
				if first {
					first = false
					rt.AtomicT(1, func(tx *stm.Tx) { r.Revoke(tx, b) })
				}
				r.Reserve(tx, 0, a)
				got = r.Get(tx, 0)
			})
			if held != a || got != a {
				t.Fatalf("Gets = %d, %d around a Revoke of %d, whose cell shares %d's line; want %d", held, got, b, a, a)
			}
			if st := rt.Stats(); st.TotalAborts() != 0 || st.Commits != 3 {
				t.Fatalf("stats %v: want 3 commits and no abort", st)
			}
		})
	}
}

// sameLineRefs returns two references whose cells in tb are distinct but
// lie in one 64-B line.
func sameLineRefs(t *testing.T, tb *ownTable) (uint64, uint64) {
	line := func(ref uint64) uintptr { return uintptr(unsafe.Pointer(tb.at(ref))) / pad.CacheLine }
	a := uint64(1)
	for b := uint64(2); b < 1<<20; b++ {
		if tb.at(a) != tb.at(b) && line(a) == line(b) {
			return a, b
		}
	}
	t.Fatal("no two references share a line")
	return 0, 0
}
