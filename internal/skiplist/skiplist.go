// Package skiplist implements a concurrent skiplist set with hand-over-hand
// transactions and revocable reservations — one of the "other concurrent
// data structures, such as balanced trees and hash tables, for which
// existing scalable algorithms rely on deferred memory reclamation" that the
// paper's conclusion (§6) proposes as the technique's next applications.
// Probabilistic balancing makes the skiplist the natural stand-in for a
// balanced tree here: it gives O(log n) expected traversals with none of the
// rotation problem (a rotation moves subtrees across regions, which would
// force wide revocation; a skiplist removal disturbs exactly one node).
//
// Design. A node has a height h drawn geometrically and participates in h
// sorted chains. A traversal descends as usual: run right along level l
// while next.key < target, then drop a level. Hand-over-hand windows cut
// the traversal after W node inspections; the thread reserves the node it
// will resume from and remembers the level in thread-local state (the
// level needs no protection: if the reservation is still valid the node is
// still in every one of its chains with its key intact, so resuming the
// descent from (node, level) is exactly a sequential search step).
//
// Removal unlinks the victim from all of its levels inside the final
// transaction, revokes it once, and frees it at the commit point — precise
// reclamation, one Revoke per removal regardless of height. The correctness
// argument is the singly linked list's (§4.1), applied per level: unlinking
// never changes any surviving node's key or forward reachability, so the
// only resumption point a removal can invalidate is the removed node
// itself, which is exactly what Revoke clears.
package skiplist

import (
	"hohtx/internal/arena"
	"hohtx/internal/core"
	"hohtx/internal/obs"
	"hohtx/internal/pad"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
)

// MaxHeight bounds node heights; 2^20 expected keys per level-20 node is
// far beyond the benchmark sizes.
const MaxHeight = 20

// Mode selects the synchronization/reclamation mechanism; see reclaim.Mode.
// The skiplist takes the two precise modes and every deferred scheme the
// seam serves.
type Mode = reclaim.Mode

// The modes the skiplist's figures use.
const (
	ModeRR    = reclaim.ModeRR
	ModeHTM   = reclaim.ModeHTM
	ModeTMHE  = reclaim.ModeTMHE
	ModeTMVBR = reclaim.ModeTMVBR
)

// ModeByName resolves a variant label ("RR-V", "HTM", "TMHE", …) to the
// Config selector pair.
func ModeByName(name string) (Mode, core.Kind, bool) {
	m, k, ok := reclaim.ModeByName(name)
	return m, k, ok && m.Generic()
}

// node is a skiplist element. height is immutable after the insert that
// published the node commits; next[0:height] are the forward links; dead
// is the deferred modes' logical-deletion mark.
type node struct {
	key    stm.Word
	height stm.Word
	dead   stm.Word
	next   [MaxHeight]stm.Word
	_      pad.Line
}

type threadState struct {
	ops uint64
	rng uint64
	// Apply's grow-only scratch: results and drawn insert heights. The
	// returned slice is valid until this thread's next Apply (the list's
	// contract, which the serving layer already honours).
	batchOut     []sets.Result
	batchHeights []int
	_            pad.Line
}

// Config parameterizes the skiplist; see reclaim.Config. A zero Profile means
// the tree setting (serial fallback after 8 attempts) and a zero Window,
// W = 16.
type Config = reclaim.Config

// SkipList is the concurrent set.
type SkipList struct {
	rt *stm.Runtime
	ar *arena.Arena[node]
	// link is the mode's linking-and-reclamation mechanism (the seam; see
	// internal/reclaim/link.go). A hold's word is the resume level.
	link    reclaim.Link
	win     core.Window
	head    arena.Handle // sentinel at full height, key 0
	threads []threadState
	guard   reclaim.Guard
	obs     *obs.Domain

	scanWindows *obs.Histogram // window txs per Ascend (nil without Obs)
	scanRenavs  *obs.Histogram // re-navigations per Ascend (nil without Obs)
}

var _ sets.Set = (*SkipList)(nil)
var _ sets.MemoryReporter = (*SkipList)(nil)

// New constructs a skiplist set.
func New(cfg Config) *SkipList {
	cfg = cfg.WithDefaults(8, 16)
	s := &SkipList{
		rt: stm.NewRuntime(cfg.Profile),
		ar: arena.New[node](arena.Config{
			Threads: cfg.Threads, Policy: cfg.ArenaPolicy,
			Guard: cfg.Guard, AccessCheck: cfg.GuardSink,
		}),
		win:     cfg.Window,
		threads: make([]threadState, cfg.Threads),
	}
	s.ar.SetRetire(func(n *node) { retireNode(n, s.rt.VersionFence()) })
	if cfg.Guard {
		s.ar.SetPoison(poisonNode)
	}
	s.guard = reclaim.GuardFor(s.ar)
	s.link = reclaim.New(cfg.Mode, reclaim.Nodes{
		Config:  cfg,
		Dead:    func(h arena.Handle) *stm.Word { return &s.ar.At(h).dead },
		Live:    s.ar.Live,
		Free:    s.ar.Free,
		Runtime: s.rt, Guard: s.guard,
	})
	if s.link.Traits().WholeOp {
		s.win = core.Window{} // unbounded: one transaction per op
	}
	if cfg.Obs != nil {
		s.obs = cfg.Obs
		s.scanWindows = cfg.Obs.Hist(obs.HistAscendWindows, "txs")
		s.scanRenavs = cfg.Obs.Hist(obs.HistAscendRenavs, "navs")
		s.rt.SetObserver(cfg.Obs.TxProbe())
		s.ar.SetObserver(cfg.Obs.AllocProbe())
	}
	for i := range s.threads {
		s.threads[i].rng = uint64(i)*0x9e3779b97f4a7c15 + 0xdeadbeef
	}
	s.head = s.ar.Alloc(0)
	h := s.ar.At(s.head)
	h.key.Init(0)
	h.height.Init(MaxHeight)
	h.dead.Init(0)
	for l := 0; l < MaxHeight; l++ {
		h.next[l].Init(0)
	}
	return s
}

// Name implements sets.Set.
func (s *SkipList) Name() string { return s.link.Name() + "/skip" }

// Register implements sets.Set.
func (s *SkipList) Register(tid int) { s.link.Register(tid) }

// Finish implements sets.Set: the deferred modes drain their retired
// lists (no-op for the precise modes).
func (s *SkipList) Finish(tid int) { s.link.Finish(tid, s.threads[tid].ops) }

// Runtime exposes the TM runtime.
func (s *SkipList) Runtime() *stm.Runtime { return s.rt }

// ObsDomain returns the attached observability domain (nil when detached).
func (s *SkipList) ObsDomain() *obs.Domain { return s.obs }

// randHeight draws a geometric height in [1, MaxHeight] (p = 1/2).
func (s *SkipList) randHeight(tid int) int {
	ts := &s.threads[tid]
	x := ts.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	ts.rng = x
	h := 1
	for x&1 == 1 && h < MaxHeight {
		h++
		x >>= 1
	}
	return h
}

// TMStats returns the full TM statistics snapshot (per-cause aborts,
// clock and commit-lock counters).
func (s *SkipList) TMStats() stm.Stats { return s.rt.Stats() }

// ReclaimStats exposes the deferred-reclamation counters (zero for the
// precise modes).
func (s *SkipList) ReclaimStats() reclaim.Stats { return s.link.Stats() }

// ReclaimTraits reports the mode's fixed reclamation properties.
func (s *SkipList) ReclaimTraits() reclaim.Traits { return s.link.Traits() }

// LiveNodes implements sets.MemoryReporter.
func (s *SkipList) LiveNodes() uint64 { return s.ar.Stats().Live }

// DeferredNodes implements sets.MemoryReporter.
func (s *SkipList) DeferredNodes() uint64 { return s.link.Stats().Deferred }

// Snapshot implements sets.Set via the bottom level (quiescence required).
func (s *SkipList) Snapshot() []uint64 {
	var out []uint64
	for h := arena.Handle(s.ar.At(s.head).next[0].Raw()); !h.IsNil(); {
		n := s.ar.At(h)
		out = append(out, n.key.Raw())
		h = arena.Handle(n.next[0].Raw())
	}
	return out
}

// ValidateLevels checks that every level is sorted and a sub-sequence of
// the level below (test helper; quiescence required).
func (s *SkipList) ValidateLevels() bool {
	bottom := map[uint64]bool{}
	for _, k := range s.Snapshot() {
		bottom[k] = true
	}
	for l := 0; l < MaxHeight; l++ {
		prev := uint64(0)
		for h := arena.Handle(s.ar.At(s.head).next[l].Raw()); !h.IsNil(); {
			n := s.ar.At(h)
			k := n.key.Raw()
			if l > 0 && !bottom[k] {
				return false // node on level l missing from level 0
			}
			if k <= prev {
				return false // not strictly sorted
			}
			if int(n.height.Raw()) <= l {
				return false // linked above its own height
			}
			prev = k
			h = arena.Handle(n.next[l].Raw())
		}
	}
	return true
}
