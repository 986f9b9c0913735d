package stm

import "testing"

// The write-set index's edge cases, on one owned context so that every
// transaction meets the table the ones before it grew.

// sharedBit returns the index of a cell of cells and three others that share
// its filter bit: a read of any of them passes the filter gate whenever a
// transaction has stored to the first, and so asks the index.
func sharedBit(t *testing.T, cells []Word) (int, [3]int) {
	t.Helper()
	for a := range cells {
		var same [3]int
		n := 0
		for b := range cells {
			if b != a && filterBit(&cells[b].m) == filterBit(&cells[a].m) && n < len(same) {
				same[n] = b
				n++
			}
		}
		if n == len(same) {
			return a, same
		}
	}
	t.Fatal("no four cells share a filter bit")
	return 0, [3]int{}
}

// TestWriteIndexRestartAndReuse: an attempt that stores 300 cells and
// restarts leaves no slot behind — the retry, which stores one cell, reads
// three cells the aborted attempt wrote past the filter and sees their
// committed values, where a stale slot would name an entry past the
// truncated write set. The next small transaction on the context still reads
// its own writes, and storing a cell twice leaves one write-set entry
// whatever the index's size.
func TestWriteIndexRestartAndReuse(t *testing.T) {
	rt := newTestRuntime()
	cells := make([]Word, 300)
	for i := range cells {
		cells[i].Init(uint64(i))
	}
	a, same := sharedBit(t, cells)

	attempts := 0
	rt.AtomicT(0, func(tx *Tx) {
		attempts++
		if attempts == 1 {
			for i := range cells {
				cells[i].Store(tx, 1000+uint64(i))
			}
			cells[a].Store(tx, 7)
			if len(tx.ws) != len(cells) {
				t.Errorf("300 cells, one stored twice: %d write-set entries", len(tx.ws))
			}
			if got := cells[a].Load(tx); got != 7 {
				t.Errorf("read-own-write after 300 stores = %d, want 7", got)
			}
			tx.Restart()
		}
		if n := len(*tx.widx); n != 1024 {
			t.Errorf("the retry's index has %d slots, want the 1 024 the first attempt grew", n)
		}
		for s, p := range *tx.widx {
			if p != 0 {
				t.Errorf("index slot %d survives the restart, naming entry %d", s, p-1)
				break
			}
		}
		cells[a].Store(tx, 1)
		for _, b := range same {
			if got := cells[b].Load(tx); got != uint64(b) {
				t.Errorf("retry reads cell %d = %d, want its committed %d", b, got, b)
			}
		}
		if got := cells[a].Load(tx); got != 1 {
			t.Errorf("retry's read-own-write = %d, want 1", got)
		}
	})
	if attempts != 2 {
		t.Fatalf("%d attempts, want 2", attempts)
	}
	for i := range cells {
		want := uint64(i)
		if i == a {
			want = 1
		}
		if got := cells[i].Raw(); got != want {
			t.Fatalf("cell %d committed %d, want %d", i, got, want)
		}
	}

	rt.AtomicT(0, func(tx *Tx) {
		cells[same[0]].Store(tx, 11)
		cells[same[1]].Store(tx, 12)
		cells[same[0]].Store(tx, 13)
		if len(tx.ws) != 2 {
			t.Errorf("two cells, one stored twice: %d write-set entries", len(tx.ws))
		}
		if got := cells[same[0]].Load(tx); got != 13 {
			t.Errorf("read-own-write = %d, want the second store's 13", got)
		}
		if got := cells[same[1]].Load(tx); got != 12 {
			t.Errorf("read-own-write = %d, want 12", got)
		}
		if got := cells[same[2]].Load(tx); got != uint64(same[2]) {
			t.Errorf("unwritten cell reads %d, want %d", got, same[2])
		}
	})
	if cells[same[0]].Raw() != 13 || cells[same[1]].Raw() != 12 {
		t.Fatalf("committed %d, %d, want 13, 12", cells[same[0]].Raw(), cells[same[1]].Raw())
	}
}

// TestWriteIndexOwnsLock: a transaction reads a cell, then writes it among
// 100 others, while another context commits an unrelated cell in between. Its
// write version is then not rv+2, so commit validates the read set and finds
// the read cell locked — by itself, which only the index can tell it. It
// must commit on its first attempt.
func TestWriteIndexOwnsLock(t *testing.T) {
	rt := newTestRuntime()
	cells := make([]Word, 100)
	var unrelated Word
	attempts := 0
	rt.AtomicT(0, func(tx *Tx) {
		attempts++
		v := cells[0].Load(tx)
		if attempts == 1 {
			// Only once: a retry that waited on this commit could hold the
			// serial lock it needs.
			done := make(chan struct{})
			go func() {
				defer close(done)
				rt.AtomicT(1, func(tx *Tx) { unrelated.Store(tx, 1) })
			}()
			<-done
		}
		for i := range cells {
			cells[i].Store(tx, v+uint64(i)+1)
		}
	})
	if attempts != 1 {
		t.Fatalf("%d attempts, want 1 (validation failed on the transaction's own lock)", attempts)
	}
	if s := rt.Stats(); s.SerialCommits != 0 || s.TotalAborts() != 0 {
		t.Fatalf("stats %v: want no abort and no serial commit", s)
	}
	for i := range cells {
		if got := cells[i].Raw(); got != uint64(i)+1 {
			t.Fatalf("cell %d committed %d, want %d", i, got, i+1)
		}
	}
}
