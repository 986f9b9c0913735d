package tree

import "hohtx/internal/arena"

// Reclamation-safety hooks: version retirement (every mode) and the
// guard-mode use-after-free sanitizer's poisoner; see internal/list/guard.go
// for the retirement argument and reclaim.Guard for the load side (an
// attempt that read poison and then *commits* is a true use-after-free and
// is reported through the arena).

// retireNode lifts every cell version of a freed tree node to the fence;
// see stm.Word.Retire. Installed for every mode, not just guard runs.
func retireNode(n *node, ver uint64) {
	n.key.Retire(ver)
	n.left.Retire(ver)
	n.right.Retire(ver)
	n.dead.Retire(ver)
}

// poisonNode overwrites every value word of a freed tree node with the
// poison sentinel (atomic stores).
func poisonNode(n *node) {
	n.key.Poison(arena.PoisonWord)
	n.left.Poison(arena.PoisonWord)
	n.right.Poison(arena.PoisonWord)
	n.dead.Poison(arena.PoisonWord)
}

// GuardStats exposes the arena sanitizer counters (zero when guard is off).
func (b *base) GuardStats() arena.GuardStats { return b.ar.GuardStats() }
