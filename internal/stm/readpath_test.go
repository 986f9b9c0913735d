package stm

import (
	"fmt"
	"reflect"
	"testing"
)

// The read path's fast path is the slow path, observably. Word.Load and
// Local.Store answer the common access without a call and decline it when
// their log is full; clipping both logs to their length before every step
// sends each access down the full protocol instead (recordRead, Store's
// appending branch), so running one script unclipped and clipped runs it on
// both paths. Each run is also held to a model written here from the
// rules alone — read-own-writes, one log entry per read that is not of a
// pending write, and the capacity rule "live reads + pending Word writes +
// pending Local stores >= Capacity, checked before the access is recorded"
// — so the access at which CauseCapacity fires is pinned, not just equal on
// both paths: the capacity cliff is a paper result (Figs. 6–7).

type rpKind uint8

const (
	rpLoad   rpKind = iota // load word i
	rpStore                // store v to word i
	rpLocal                // store v to local i
	rpMark                 // remember ReadMark in slot i
	rpForget               // ForgetReadsBefore(slot i)
	rpBump                 // another transaction commits v to word i (speculative attempts only)
)

type rpStep struct {
	kind rpKind
	i    int
	v    uint64
}

// rpOutcome is everything a run lets an observer see.
type rpOutcome struct {
	Vals       []uint64 // what each load of the committing attempt returned
	CapAt      int      // step at which the first attempt hit CauseCapacity, or -1
	Logged     uint64   // ReadMark at the end of the committing attempt
	Live       int      // reads still tracked at its end
	Locals     int      // Local stores pending at its end
	Commits    uint64
	Serial     uint64
	Extensions uint64
	Aborts     [int(numCauses)]uint64
}

const (
	rpWords  = 640
	rpReads  = 500 // scripts load words [0, rpReads); the rest are write-only
	rpLocals = 8
)

// rpModel predicts a script's outcome from the rules in the header comment.
func rpModel(script []rpStep, capacity int) rpOutcome {
	out := rpOutcome{CapAt: -1}
	committed := make([]uint64, rpWords)
	for i := range committed {
		committed[i] = uint64(i) + 1
	}
	bumpSeq := make([]int, rpWords) // which bump last wrote the word (0: none)
	bumped := make([]bool, len(script))
	bumps := 0
	for serial := false; ; serial = true {
		var (
			vals     []uint64
			reads    uint64
			released uint64
			marks    [4]uint64
			ws       = map[int]uint64{}
			ls       = map[int]bool{}
			snap     = bumps
			fired    = false
		)
		record := func(step int) bool { // the capacity rule
			if capacity > 0 && !serial && int(reads-released)+len(ws)+len(ls) >= capacity {
				out.CapAt = step
				return false
			}
			return true
		}
	steps:
		for n, st := range script {
			switch st.kind {
			case rpLoad:
				if v, ok := ws[st.i]; ok {
					vals = append(vals, v)
					continue
				}
				if bumpSeq[st.i] > snap { // newer than the snapshot: extend
					snap = bumps
					out.Extensions++
				}
				if fired = !record(n); fired {
					break steps
				}
				reads++
				vals = append(vals, committed[st.i])
			case rpStore:
				if _, ok := ws[st.i]; !ok {
					if fired = !record(n); fired {
						break steps
					}
				}
				ws[st.i] = st.v
			case rpLocal:
				if !ls[st.i] {
					if fired = !record(n); fired {
						break steps
					}
				}
				ls[st.i] = true
			case rpMark:
				marks[st.i] = reads
			case rpForget:
				if m := min(marks[st.i], reads); m > released {
					released = m
				}
			case rpBump:
				if !serial && !bumped[n] {
					bumped[n] = true
					bumps++
					committed[st.i], bumpSeq[st.i] = st.v, bumps
				}
			}
		}
		if fired {
			out.Aborts[CauseCapacity]++
			continue
		}
		out.Vals, out.Logged, out.Live, out.Locals = vals, reads, int(reads-released), len(ls)
		out.Commits = 1
		if serial {
			out.Serial = 1
		}
		return out
	}
}

// rpRun executes the script as one transaction of a new runtime, in tid's
// context, over words returned to their initial state, and reports what it
// observed beside the model's prediction. With slow set it clips the read log
// and the Local log to their length before every step, so no access finds
// room in them. appended counts the committing attempt's recorded accesses
// (log entries added) that found their log full: the ones recordRead or
// Store's appending branch recorded.
func rpRun(t *testing.T, tid int, words []Word, script []rpStep, capacity int, slow bool) (got, want rpOutcome, appended int) {
	t.Helper()
	rt := NewRuntime(Profile{Capacity: capacity, MaxAttempts: 4})
	for i := range words {
		words[i].m.Store(0) // versions are relative to a runtime's clock
		words[i].v.Store(uint64(i) + 1)
	}
	locals := make([]Local, rpLocals)
	bumped := make([]bool, len(script))

	got.CapAt = -1
	attempt := 0
	rt.AtomicT(tid, func(tx *Tx) {
		attempt++
		got.Vals = got.Vals[:0]
		appended = 0
		var marks [4]uint64
		at := 0
		defer func() {
			// Unwinding with an abort: note where the first attempt stopped.
			if r := recover(); r != nil {
				if attempt == 1 && tx.cause == CauseCapacity {
					got.CapAt = at
				}
				panic(r)
			}
		}()
		// count notes whether a step added an entry to a log that was full.
		count := func(before, after, capBefore int) {
			if after > before && before == capBefore {
				appended++
			}
		}
		for n, st := range script {
			at = n
			if slow {
				tx.rs, tx.ls = tx.rs[:len(tx.rs):len(tx.rs)], tx.ls[:len(tx.ls):len(tx.ls)]
			}
			switch st.kind {
			case rpLoad:
				l, c := len(tx.rs), cap(tx.rs)
				got.Vals = append(got.Vals, words[st.i].Load(tx))
				count(l, len(tx.rs), c)
			case rpStore:
				words[st.i].Store(tx, st.v)
			case rpLocal:
				l, c := len(tx.ls), cap(tx.ls)
				locals[st.i].Store(tx, st.v)
				count(l, len(tx.ls), c)
			case rpMark:
				marks[st.i] = tx.ReadMark()
			case rpForget:
				tx.ForgetReadsBefore(marks[st.i])
			case rpBump:
				// A serial attempt holds the commit lock exclusively; a
				// commit from here would wait on it forever.
				if !tx.Serial() && !bumped[n] {
					bumped[n] = true
					done := make(chan struct{})
					go func() {
						defer close(done)
						rt.Atomic(func(tx2 *Tx) { words[st.i].Store(tx2, st.v) })
					}()
					<-done
				}
			}
		}
		got.Logged = tx.ReadMark()
		got.Live = len(tx.rs) - tx.rsHead
		got.Locals = len(tx.ls)
	})
	st := rt.Stats()
	bumps := uint64(0)
	for _, b := range bumped {
		if b {
			bumps++
		}
	}
	got.Commits, got.Serial, got.Extensions, got.Aborts = st.Commits-bumps, st.SerialCommits, st.Extensions, st.Aborts
	return got, rpModel(script, capacity), appended
}

// collidingPair finds a word the scripts read and a word they never read
// whose version words share a write-filter bit.
func collidingPair(t *testing.T, words []Word) (read, other int) {
	t.Helper()
	for i := 0; i < rpReads; i++ {
		for j := rpReads; j < len(words); j++ {
			if filterBit(&words[i].m) == filterBit(&words[j].m) {
				return i, j
			}
		}
	}
	t.Fatal("no two words share a filter bit: filterBit is not a 64-bit filter")
	return 0, 0
}

// differ names the first observable on which two outcomes disagree.
func (a rpOutcome) differ(b rpOutcome) string {
	for i := 0; i < len(a.Vals) && i < len(b.Vals); i++ {
		if a.Vals[i] != b.Vals[i] {
			return fmt.Sprintf("load %d returned %d vs %d", i, a.Vals[i], b.Vals[i])
		}
	}
	if len(a.Vals) != len(b.Vals) {
		return fmt.Sprintf("%d loads vs %d", len(a.Vals), len(b.Vals))
	}
	a.Vals, b.Vals = nil, nil
	if !reflect.DeepEqual(a, b) {
		return fmt.Sprintf("%+v vs %+v", a, b)
	}
	return ""
}

func loadsFrom(script []rpStep, lo, hi int) []rpStep {
	for i := lo; i < hi; i++ {
		script = append(script, rpStep{kind: rpLoad, i: i})
	}
	return script
}

func TestReadPathFastIsSlow(t *testing.T) {
	scenarios := []struct {
		name  string
		build func(words []Word) []rpStep
	}{
		{"no-writes", func([]Word) []rpStep { return loadsFrom(nil, 0, rpReads) }},
		{"writes-to-other-cells", func([]Word) []rpStep {
			var s []rpStep
			for j := 0; j < 4; j++ {
				s = append(s, rpStep{kind: rpStore, i: rpReads + j, v: 9})
			}
			return loadsFrom(s, 0, rpReads)
		}},
		{"read-own-write", func([]Word) []rpStep {
			s := []rpStep{{kind: rpStore, i: 5, v: 77}}
			s = loadsFrom(s, 0, rpReads)
			s = append(s, rpStep{kind: rpStore, i: 5, v: 78}) // rewrite: no new entry
			return loadsFrom(s, 4, 7)
		}},
		{"filter-collision", func(words []Word) []rpStep {
			i, j := collidingPair(t, words)
			s := []rpStep{{kind: rpStore, i: j, v: 9}, {kind: rpLoad, i: i}}
			return loadsFrom(s, 0, rpReads)
		}},
		{"extension", func([]Word) []rpStep {
			s := loadsFrom(nil, 0, 10)
			s = append(s, rpStep{kind: rpBump, i: 20, v: 4242})
			return loadsFrom(s, 20, rpReads)
		}},
		{"local-at-the-cliff", func([]Word) []rpStep {
			// The access that reaches capacity 8, and then 448, is a Local
			// store: Store's own fast path must decline it too.
			s := append(loadsFrom(nil, 0, 8), rpStep{kind: rpLocal, i: 0, v: 1})
			s = append(loadsFrom(s, 8, 447), rpStep{kind: rpLocal, i: 1, v: 2})
			return loadsFrom(s, 447, rpReads)
		}},
		{"mix", func([]Word) []rpStep {
			// Reads, early-released reads, Word writes and Local stores
			// interleaved; the forgets stop early so that the footprint
			// still climbs to the largest capacity in the table.
			var s []rpStep
			for k := 0; k < 640; k++ {
				s = append(s, rpStep{kind: rpLoad, i: k % rpReads})
				if k%7 == 3 {
					s = append(s, rpStep{kind: rpStore, i: rpReads + (k/7)%50, v: uint64(k)})
				}
				if k%11 == 5 {
					s = append(s, rpStep{kind: rpLocal, i: (k / 11) % 6, v: uint64(k)})
				}
				if k%13 == 0 {
					s = append(s, rpStep{kind: rpMark, i: 0})
				}
				if k < 160 && k%13 == 6 {
					s = append(s, rpStep{kind: rpForget, i: 0})
				}
			}
			return s
		}},
	}
	for _, sc := range scenarios {
		for _, capacity := range []int{0, 8, 448} {
			t.Run(fmt.Sprintf("%s/cap=%d", sc.name, capacity), func(t *testing.T) {
				words := make([]Word, rpWords)
				script := sc.build(words)
				for _, tid := range ownedAndPooled {
					var byPath [2]rpOutcome
					for i, slow := range []bool{false, true} {
						got, want, appended := rpRun(t, tid, words, script, capacity, slow)
						if d := got.differ(want); d != "" {
							t.Fatalf("tid %d, slow %v, observed vs model: %s", tid, slow, d)
						}
						if (capacity != 0) != (got.CapAt >= 0) {
							t.Fatalf("tid %d, slow %v: capacity %d, abort at step %d: the script is too short to find the cliff", tid, slow, capacity, got.CapAt)
						}
						// The clipped run records every access through the full
						// protocol; the unclipped one only the few that outgrow
						// the log.
						if recorded := int(got.Logged) + got.Locals; slow && appended != recorded || !slow && appended*2 >= recorded {
							t.Fatalf("tid %d, slow %v: %d of %d recorded accesses found their log full", tid, slow, appended, recorded)
						}
						byPath[i] = got
					}
					if d := byPath[0].differ(byPath[1]); d != "" {
						t.Fatalf("tid %d, fast path vs slow path: %s", tid, d)
					}
				}
			})
		}
	}
}
