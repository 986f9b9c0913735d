package skiplist

import "hohtx/internal/arena"

// Reclamation-safety hooks: version retirement (every mode) and the
// guard-mode use-after-free sanitizer's poisoner; see internal/list/guard.go
// for the retirement argument and reclaim.Guard for the load side (an
// attempt that read poison and then *commits* is a true use-after-free and
// is reported through the arena).

// retireNode lifts every cell version of a freed skiplist node to the
// fence; see stm.Word.Retire. Installed for every mode, not just guard
// runs.
func retireNode(n *node, ver uint64) {
	n.key.Retire(ver)
	n.height.Retire(ver)
	n.dead.Retire(ver)
	for l := 0; l < MaxHeight; l++ {
		n.next[l].Retire(ver)
	}
}

// poisonNode overwrites every value word of a freed skiplist node with the
// poison sentinel (atomic stores).
func poisonNode(n *node) {
	n.key.Poison(arena.PoisonWord)
	n.height.Poison(arena.PoisonWord)
	n.dead.Poison(arena.PoisonWord)
	for l := 0; l < MaxHeight; l++ {
		n.next[l].Poison(arena.PoisonWord)
	}
}

// GuardStats exposes the arena sanitizer counters (zero when guard is off).
func (s *SkipList) GuardStats() arena.GuardStats { return s.ar.GuardStats() }
