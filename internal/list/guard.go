package list

import "hohtx/internal/arena"

// Reclamation-safety hooks: version retirement (every mode) and the
// guard-mode use-after-free sanitizer.
//
// Every Free first retires the node's cell versions (retireNode, installed
// unconditionally via arena.SetRetire): a transaction that read its way to
// the node before the unlinking commit's write-back cannot then take a
// fresh read of the dead cells — the lifted versions force a snapshot
// extension, which fails on the rewritten link and aborts the attempt.
// Real HTM gets this for free from hardware conflict detection; without
// the retire step a read-only window (which never revalidates at commit)
// could assemble a zombie snapshot from a recycled node. The torture
// harness's sanitizer is what caught that gap, on singly/TMHP under a
// loaded scheduler.
//
// With Config.Guard additionally set, freed nodes' value words are
// overwritten with arena.PoisonWord before the slot can be reallocated,
// and every value a traversal loads is handed to the list's reclaim.Guard,
// which reports any committed read of the sentinel.

// retireNode lifts every cell version of a freed node to the fence; see
// stm.Word.Retire. Installed for every mode, not just guard runs.
func retireNode(n *node, ver uint64) {
	n.key.Retire(ver)
	n.next.Retire(ver)
	n.prev.Retire(ver)
	n.dead.Retire(ver)
	n.rc.Retire(ver)
}

// poisonNode overwrites every value word of a freed node with the poison
// sentinel. Stores are atomic (stm.Word.Poison), so racing doomed readers
// stay race-detector clean.
func poisonNode(n *node) {
	n.key.Poison(arena.PoisonWord)
	n.next.Poison(arena.PoisonWord)
	n.prev.Poison(arena.PoisonWord)
	n.dead.Poison(arena.PoisonWord)
	n.rc.Poison(arena.PoisonWord)
}

// GuardStats exposes the arena sanitizer counters (zero when guard is off).
func (l *List) GuardStats() arena.GuardStats { return l.ar.GuardStats() }
