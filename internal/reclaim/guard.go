package reclaim

import (
	"hohtx/internal/arena"
	"hohtx/internal/stm"
)

// Guard is the load side of the arena's use-after-free sanitizer, shared
// by the structures' traversals and the seam. With the arena's guard mode
// on, freed nodes' value words hold arena.PoisonWord until the slot is
// reallocated, and every transactional load on the traversal paths is
// checked by Word or Link. After version retirement (stm.Word.Retire, run by
// every Free) a doomed, pre-free-snapshot reader cannot validate a load of
// the sentinel at all, so any observed poison read comes from a
// transaction whose snapshot postdates the free — a handle used after its
// node was reclaimed. Reporting is still commit-gated: the wrappers
// register a commit hook, and since commit hooks are discarded on abort,
// ReportUAF fires precisely for attempts that dereferenced a dead handle
// and then passed validation. That is the checkable meaning of "precise
// reclamation": no committed transaction ever observes freed memory.
//
// The structure loads the cell itself (stm.Word.Load, the only way a cell
// is read) and hands the value to Word or Link. Both are small enough to
// inline at every call site, so the zero Guard — guard mode off — costs each
// load one predictable branch and no call; CI's "Read path stays call-free"
// leg fails naming whichever of them stops inlining.
type Guard struct {
	on     bool
	note   func(arena.Handle)
	report func(a, b, c uint64) // ReportUAF(tid a, handle b)
}

// GuardFor returns the Guard of a structure's node arena.
func GuardFor[T any](ar *arena.Arena[T]) Guard {
	if !ar.Guarded() {
		return Guard{}
	}
	return Guard{
		on:     true,
		note:   ar.NotePoisonRead,
		report: func(a, b, _ uint64) { ar.ReportUAF(int(a), arena.Handle(b)) },
	}
}

// poisoned records a poison read on h and arms commit-gated violation
// reporting for the current attempt.
func (g *Guard) poisoned(tx *stm.Tx, tid int, h arena.Handle) {
	g.note(h)
	tx.OnCommitCall(g.report, uint64(tid), uint64(h), 0)
}

// Word checks v, a value word just loaded from the node named by h, for
// the poison sentinel in guard mode, and returns it.
func (g *Guard) Word(tx *stm.Tx, tid int, h arena.Handle, v uint64) uint64 {
	if g.on && v == arena.PoisonWord {
		g.poisoned(tx, tid, h)
	}
	return v
}

// Link is Word for handle-bearing cells. The sentinel is defused to Nil so
// that a benign doomed reader stops traversing instead of panicking in
// arena.At (the sentinel carries the reserved user bits); the attempt
// still aborts at validation, and a committing attempt still reports.
func (g *Guard) Link(tx *stm.Tx, tid int, h arena.Handle, v uint64) arena.Handle {
	if g.on && v == arena.PoisonWord {
		g.poisoned(tx, tid, h)
		return arena.Nil
	}
	return arena.Handle(v)
}
