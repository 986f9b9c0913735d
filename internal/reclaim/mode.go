package reclaim

import (
	"fmt"

	"hohtx/internal/core"
)

// Mode selects a structure's linking-and-reclamation mechanism. It is the
// one selector a structure's Config carries (each structure re-exports the
// values it supports) and New is the one place it is resolved; past the
// constructor no structure asks which mechanism it got.
type Mode uint8

const (
	// ModeRR is hand-over-hand transactions with revocable reservations
	// and immediate (precise) reclamation — the paper's contribution. The
	// reservation kind is chosen separately (core.Kind).
	ModeRR Mode = iota
	// ModeHTM performs each whole operation in a single transaction with
	// no reservations (the paper's "HTM" baseline).
	ModeHTM
	// ModeREF is hand-over-hand transactions with transactional reference
	// counts on window boundary nodes (the paper's "REF" baseline). It
	// needs a count cell in the node, so it is implemented by, and defined
	// for, the singly linked list (and its hash table) only.
	ModeREF
	// ModeER runs each operation as one transaction that early-releases
	// traversal reads more than W nodes behind the frontier (Herlihy et
	// al. [17]; the paper's §1 discusses this as the STM-only alternative
	// to hand-over-hand windows — it cannot run on real HTM, and it
	// cannot reclaim precisely, so removals defer reclamation through
	// epochs). Singly linked list only, like ModeREF: the epoch bracket
	// and the rolling release live in the list's traversal. An extension
	// comparator, not one of the paper's measured series.
	ModeER
	// ModeTMHP is hand-over-hand transactions with hazard pointers and
	// batched deferred reclamation (the paper's "TMHP" baseline).
	ModeTMHP
	// ModeTMHE is hand-over-hand transactions with hazard-era deferred
	// reclamation (Ramalhete & Correia; DESIGN.md §14): the TMHP window
	// protocol verbatim, but the published reservation is an era, not a
	// pointer, so protection costs an epoch-style clock read while a
	// stalled reader strands only the nodes whose lifetime interval it
	// covers.
	ModeTMHE
	// ModeTMVBR is hand-over-hand transactions with version-based
	// reclamation (Sheffi, Herlihy & Petrank; DESIGN.md §14): no
	// reservations at all — retirees are freed once the STM's version
	// fence advances past their retire stamp, and a resumed traversal
	// revalidates its held node by arena generation + dead mark instead
	// of pinning it.
	ModeTMVBR
)

// modeSpec is one row of the mode table: the variant label and, for the
// modes the generic deferred link serves, how to build the scheme from
// what the structure handed the seam.
type modeSpec struct {
	name   string
	scheme func(Nodes) Scheme
}

// modes is indexed by Mode. Adding a deferred scheme is one row here (or
// one RegisterScheme call from the scheme's own file): every structure
// that takes a generic mode then runs it, unedited.
var modes = []modeSpec{
	ModeRR:  {name: "RR"},
	ModeHTM: {name: "HTM"},
	ModeREF: {name: "REF"},
	ModeER:  {name: "ER"},
	ModeTMHP: {"TMHP", func(n Nodes) Scheme {
		return NewHazardPointers(HPConfig{
			Threads: n.Threads, SlotsPerThread: 2, ScanThreshold: n.ScanThreshold, Free: n.Free,
		})
	}},
	ModeTMHE: {"TMHE", func(n Nodes) Scheme {
		return NewHazardEras(HEConfig{Threads: n.Threads, ScanThreshold: n.ScanThreshold, Free: n.Free})
	}},
	ModeTMVBR: {"TMVBR", func(n Nodes) Scheme {
		return NewVBR(VBRConfig{
			Threads: n.Threads, TickEvery: n.ScanThreshold, Free: n.Free,
			Clock: n.Runtime.VersionFence, Tick: n.Runtime.TickVersionFence,
		})
	}},
}

// RegisterScheme adds a deferred scheme to the mode table under the given
// variant label and returns the Mode that selects it. The table is read
// without synchronization, so register at start-up only (package init, or
// a test's setup before any structure is built).
func RegisterScheme(name string, scheme func(Nodes) Scheme) Mode {
	modes = append(modes, modeSpec{name, scheme})
	return Mode(len(modes) - 1)
}

// Scheme builds the mode's deferred scheme from what a structure handed
// the seam; nil for a mode that has none (RR, HTM and the list-local
// modes).
func (m Mode) Scheme(n Nodes) Scheme {
	if int(m) >= len(modes) || modes[m].scheme == nil {
		return nil
	}
	return modes[m].scheme(n)
}

// String returns the mode's variant label.
func (m Mode) String() string {
	if int(m) < len(modes) {
		return modes[m].name
	}
	return fmt.Sprintf("mode-?%d", uint8(m))
}

// Generic reports whether New builds the mode's link from a Nodes value
// alone, which is what makes the mode available on every structure. The
// list-local modes (REF, ER) are not.
func (m Mode) Generic() bool {
	return m <= ModeHTM || int(m) < len(modes) && modes[m].scheme != nil
}

// Modes returns every mode in the table, registered schemes included, in
// table order: what the family table derives a structure's variant list
// from, so a RegisterScheme'd mode gets sweep cells without being named.
func Modes() []Mode {
	out := make([]Mode, len(modes))
	for i := range out {
		out[i] = Mode(i)
	}
	return out
}

// ModeByName resolves a variant label — a reservation kind's name
// ("RR-V"), or a mode's ("HTM", "TMHP", …) — to the Config selector pair.
func ModeByName(name string) (Mode, core.Kind, bool) {
	for _, k := range core.Kinds() {
		if k.String() == name {
			return ModeRR, k, true
		}
	}
	for m := ModeHTM; int(m) < len(modes); m++ {
		if modes[m].name == name {
			return m, 0, true
		}
	}
	return 0, 0, false
}
