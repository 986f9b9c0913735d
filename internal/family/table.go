// Package family is the one table of the repository's structure families:
// which structures exist, how each is built, and which variants — the
// reservation kinds, the modes of internal/reclaim, the lock-free
// comparators — each takes. The measurement harness (internal/bench), the
// torture harness, the public constructors in package hohtx and the
// command-line front ends all build structures through it, so a structure
// is a node type, its traversals and one Row here.
package family

import (
	"fmt"
	"strings"

	"hohtx/internal/core"
	"hohtx/internal/list"
	"hohtx/internal/lockfree"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
	"hohtx/internal/skiplist"
	"hohtx/internal/tree"
)

// Set is what every variant the table builds provides (the table checks it
// at compile time): the set, its node counts, its reclamation counters,
// and its memory books, whose Traits name the discipline it drains by.
type Set interface {
	sets.Set
	sets.MemoryReporter
	sets.ReclaimReporter
	sets.BooksReporter
}

// The family names, as front ends spell them.
const (
	Singly = "singly" // singly linked list (Figure 2)
	Doubly = "doubly" // doubly linked list (Figures 3 and 5)
	Hash   = "hash"   // bucketed hash set (paper §6 future work)
	ITree  = "itree"  // internal BST (Figure 6)
	ETree  = "etree"  // external BST (Figure 7)
	Skip   = "skip"   // skiplist (paper §6 future work)
)

// Comparator is a lock-free baseline a family is measured against. New
// reads Threads and ArenaPolicy from the Config and ignores the rest:
// nothing in a lock-free structure is transactional.
type Comparator struct {
	Name string
	New  func(reclaim.Config) Set
}

// Row is one structure family.
type Row struct {
	Name string
	// New builds the TM-backed structure; cfg.Mode is one Takes accepts.
	New func(cfg reclaim.Config) Set
	// Every family takes the six reservation kinds and HTM. Deferred: it
	// also takes the deferred schemes the seam serves generically (TMHP,
	// TMHE, TMVBR and whatever reclaim.RegisterScheme adds) — all but the
	// internal tree, whose two-children removal revokes nodes that stay
	// linked. Local: it also takes the list-local modes (REF, ER), which
	// need the singly linked node layout and traversal.
	Deferred, Local bool
	// LockFree lists the comparators the paper defines for the family.
	LockFree []Comparator
	// Attempts is the speculative attempts before the structure's
	// transactions serialize (what its constructor defaults to; a Profile
	// that overrides something else has to restate it).
	Attempts int
	// Window is the tuned window size at a thread count.
	Window func(threads int) int
	// Invariant names, and Holds checks, the family's shape invariant on a
	// quiescent structure (nil: the sorted snapshot is all there is).
	Invariant string
	Holds     func(Set) bool
}

// listWindow is the lists' knee as measured on a 2-CPU x86-64 host, not the
// paper's: "Up to 4 threads, a window size of 16 is best. At 8 threads, the
// balance tips in favor of a window size of 8" (§5.2). A window hand-over
// costs about ten node visits here, so up to 4 threads the knee sits at 64
// (EXPERIMENTS.md "Figure 4" has the sweep and the end-to-end A/B); 8 stays
// the paper's, since two CPUs cannot measure 8-way contention. treeWindow
// follows the paper: the trees favor larger windows at low thread counts
// (§5.4).
func listWindow(threads int) int {
	if threads <= 4 {
		return 64
	}
	return 8
}

func treeWindow(threads int) int {
	if threads <= 2 {
		return 32
	}
	return 16
}

// tm adapts a structure's constructor to Row.New.
func tm[T Set](mk func(reclaim.Config) T) func(reclaim.Config) Set {
	return func(cfg reclaim.Config) Set { return mk(cfg) }
}

func harris(hp bool) func(reclaim.Config) Set {
	return func(cfg reclaim.Config) Set {
		return lockfree.NewHarrisList(lockfree.ListConfig{
			Threads: cfg.Threads, UseHazardPointers: hp, ArenaPolicy: cfg.ArenaPolicy,
		})
	}
}

func nmTree(cfg reclaim.Config) Set {
	return lockfree.NewNMTree(lockfree.NMConfig{Threads: cfg.Threads})
}

// routed is both external trees, TM-backed and lock-free.
type routed interface{ ValidateRouting() bool }

// table is every family, in the order sweeps and help strings list them.
var table = []Row{
	{
		Name: Singly, New: tm(list.New), Deferred: true, Local: true,
		LockFree: []Comparator{{"LFLeak", harris(false)}, {"LFHP", harris(true)}},
		Attempts: 2, Window: listWindow,
	},
	{
		// No REF (the paper drops reference counting after the singly
		// linked list) and no lock-free doubly linked list (as in the paper).
		Name: Doubly, New: tm(list.NewDoubly), Deferred: true,
		Attempts: 2, Window: listWindow,
		Invariant: "prev/next link symmetry",
		Holds:     func(s Set) bool { return s.(*list.DList).ValidateLinks() },
	},
	{
		// Four buckets per thread: chains long enough to cut windows in.
		Name: Hash, Deferred: true, Local: true,
		New:      func(cfg reclaim.Config) Set { return list.NewHashTable(cfg, 0) },
		Attempts: 2, Window: listWindow,
	},
	{
		// The lock-free comparator tree is external (as in the paper).
		Name: ITree, New: tm(tree.NewInternal),
		Attempts: 8, Window: treeWindow,
		Invariant: "BST ordering invariant",
		Holds:     func(s Set) bool { return s.(*tree.Internal).ValidateBST() },
	},
	{
		Name: ETree, New: tm(tree.NewExternal), Deferred: true,
		LockFree: []Comparator{{"LFLeak", nmTree}},
		Attempts: 8, Window: treeWindow,
		Invariant: "external-tree routing invariant",
		Holds:     func(s Set) bool { return s.(routed).ValidateRouting() },
	},
	{
		Name: Skip, New: tm(skiplist.New), Deferred: true,
		Attempts: 8, Window: treeWindow,
		Invariant: "skiplist level and tower invariant",
		Holds:     func(s Set) bool { return s.(*skiplist.SkipList).ValidateLevels() },
	},
}

// Names returns every family's name, in table order.
func Names() []string {
	out := make([]string, len(table))
	for i := range table {
		out[i] = table[i].Name
	}
	return out
}

// ByName returns the named family's row, or an error listing the families
// there are.
func ByName(name string) (*Row, error) {
	for i := range table {
		if table[i].Name == name {
			return &table[i], nil
		}
	}
	return nil, fmt.Errorf("unknown structure family %q (have: %s)", name, strings.Join(Names(), ", "))
}

// Takes reports whether the family's TM-backed structure runs under m.
func (r *Row) Takes(m reclaim.Mode) bool {
	switch {
	case m <= reclaim.ModeHTM:
		return true
	case m.Generic():
		return r.Deferred
	default:
		return r.Local
	}
}

// Variants returns every variant label the family takes: the reservation
// kinds, the modes Takes accepts, the lock-free comparators.
func (r *Row) Variants() []string {
	var out []string
	for _, k := range core.Kinds() {
		out = append(out, k.String())
	}
	for _, m := range reclaim.Modes() {
		if m != reclaim.ModeRR && r.Takes(m) {
			out = append(out, m.String())
		}
	}
	for _, c := range r.LockFree {
		out = append(out, c.Name)
	}
	return out
}

// Build constructs the family's variant: a lock-free comparator the row
// lists, or the TM-backed structure under the selector pair the label
// resolves to (which Build fills into cfg). A variant the family does not
// take is an error naming the ones it does.
func (r *Row) Build(variant string, cfg reclaim.Config) (Set, error) {
	for _, c := range r.LockFree {
		if c.Name == variant {
			return c.New(cfg), nil
		}
	}
	mode, kind, ok := reclaim.ModeByName(variant)
	if !ok || !r.Takes(mode) {
		return nil, fmt.Errorf("variant %q is undefined for family %q (have: %s)",
			variant, r.Name, strings.Join(r.Variants(), ", "))
	}
	cfg.Mode, cfg.RRKind = mode, kind
	return r.New(cfg), nil
}
