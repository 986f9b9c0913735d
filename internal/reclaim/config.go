package reclaim

import (
	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/obs"
	"hohtx/internal/stm"
)

// Config parameterizes the construction of a structure that links its
// window transactions through this package: the lists, the trees and the
// skiplist all take it (each under its own package's name, as an alias).
// It lives here because what it selects is the mechanism (Mode, RRKind)
// and what the mechanism runs on (the TM profile, the arena, the
// observability domain); the structures add nothing of their own but two
// defaults, which WithDefaults takes as arguments.
type Config struct {
	// Mode selects the mechanism; default ModeRR.
	Mode Mode
	// RRKind selects the reservation implementation for ModeRR.
	RRKind core.Kind
	// Threads is the number of distinct tids that will operate on the
	// structure. Required.
	Threads int
	// Window is the hand-over-hand window policy. The best setting is
	// thread-count dependent (Figure 4); the family table (internal/family)
	// holds each family's tuned values and where they were measured.
	// Ignored (unbounded) for ModeHTM.
	Window core.Window
	// Profile overrides the TM speculation profile. The zero value means
	// the paper's setting for the structure: HTM simulation with serial
	// fallback after 2 failed attempts (lists) or 8 (trees, skiplist).
	Profile stm.Profile
	// ArenaPolicy selects the allocator free-list policy (Figure 5).
	ArenaPolicy arena.Policy
	// ScanThreshold is the retire batch size of the deferred modes (the
	// hazard-pointer scan threshold, VBR's self-tick cadence); default 64,
	// the paper's best-performing setting.
	ScanThreshold int
	// Guard enables the arena use-after-free sanitizer: freed nodes are
	// poisoned and any *committed* read of a dead node is reported (see
	// guard.go). Off by default, and off it costs a
	// traversal load one predictable branch and no call: the check
	// (Guard.Word/Link) is inlined at every site, which CI's "Read path
	// stays call-free" leg pins. On, it adds a compare of the loaded value
	// to the sentinel.
	Guard bool
	// GuardSink receives guard violations instead of the default panic
	// (torture harnesses collect events; tests assert on them). Only
	// meaningful with Guard set.
	GuardSink func(arena.GuardEvent)
	// Obs, when non-nil, is the domain the structure exports through. Its
	// one obs.TxProbe goes to every layer the structure owns: the TM
	// runtime (commit latency, transaction lifecycle events, abort
	// attribution, request-span phases), the arena (free events) and the
	// deferred-reclamation scheme (retire events, retire→free delays), and
	// the domain itself gets the scan histograms and the deferred-depth
	// gauges. The reservation is not instrumented: observing a structure
	// does not change which path its windows take. Nil keeps every
	// instrumented site at a single nil/branch check.
	Obs *obs.Domain
}

// WithDefaults fills in what c leaves zero. attempts and w are the calling
// structure's: the speculative attempts before its transactions serialize
// and its window size (the paper's 2 and 8 for the lists, 8 and 16 for the
// trees and the skiplist).
func (c Config) WithDefaults(attempts, w int) Config {
	if c.Threads <= 0 {
		c.Threads = 8
	}
	if c.Profile == (stm.Profile{}) {
		c.Profile = stm.HTMProfile(attempts)
	}
	if c.Window.W == 0 {
		c.Window.W = w
	}
	return c
}
