// Package torture is the adversarial stress harness that turns the
// repository's headline claim — precise memory reclamation with no grace
// period — from design prose into a checked property. A run hammers one
// (structure × variant × allocator-policy) instance with randomized
// concurrent operation mixes, then quiesces and checks every invariant the
// claim implies:
//
//   - the final snapshot is strictly sorted;
//   - the recorded history — every call's interval, ops and results, and
//     every scan's start key and emitted keys — is linearizable, per key
//     with scans held to ASCEND's weak contract, and per component of keys
//     joined by atomic batches (check);
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
// Worker ids are leased through the internal/serve pool in short batches,
// the id discipline a server front end imposes.
//
// Every failure message embeds the Config repro string, so a schedule-
// dependent bug becomes a reproducible failing seed.
package torture
