// Package torture is the adversarial stress harness that turns the
// repository's headline claim — precise memory reclamation with no grace
// period — from design prose into a checked property. A run hammers one
// (structure × variant × allocator-policy) instance with randomized
// concurrent operation mixes, then quiesces and checks every invariant the
// claim implies:
//
//   - the final snapshot is strictly sorted and in the key range;
//   - per-key presence matches an exact oracle (a successful insert or
//     remove toggles presence, so presence after quiesce equals prefill
//     presence + successful inserts − successful removes, independent of
//     interleaving);
//   - the verdict at quiescence (serve.Sharded.Books): every worker id at
//     rest, and each shard's drained books balanced (reclaim.Books: live =
//     sentinels + per key × keys + deferred, nothing deferred unless the
//     mode leaks), with hazard leftovers slot-bounded after round one;
//   - guard mode (arena use-after-free sanitizer) observed zero committed
//     reads of freed slots;
//   - structure-specific shape validators (link symmetry, BST ordering,
//     routing, skiplist levels) pass;
//   - no operation panicked (double frees, bump-pointer exhaustion and
//     guard violations without a sink all panic deterministically).
//
// Worker ids are not pinned: every run leases them through the
// internal/serve pool in short batches, so one logical op stream migrates
// across worker ids mid-run and per-slot state (reservations, hazard
// slots, allocator magazines) is exercised by multiple streams in
// sequence — the same id discipline a server front end imposes.
//
// Every failure message embeds the Config repro string, so a schedule-
// dependent bug becomes a reproducible failing seed.
package torture
