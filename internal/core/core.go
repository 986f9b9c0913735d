// Package core implements revocable reservations, the central contribution
// of the paper (§2–§3).
//
// A revocable reservation is a shared object with four operations, all
// invoked from within transactions (here: inside an stm.Runtime.Atomic
// closure):
//
//	Reserve(r)  add reference r to the calling thread's reservation
//	Get()       return the thread's reserved reference, or nil (0)
//	Release()   drop the thread's reservation
//	Revoke(r)   remove r from EVERY thread's reservation
//
// Hand-over-hand operations reserve their traversal position at the end of
// each window transaction and Get it back at the start of the next; a
// remover Revokes a node before freeing it, so no later window can resume
// from reclaimed memory. Because every method executes transactionally, a
// Revoke conflicts with concurrent uses of the same reservation, which is
// what lets memory be reclaimed *immediately* without a grace period.
//
// The paper's taxonomy has six kinds, and this package four
// implementations: DM is SA with one array, XO is SO with one table.
//
//	strict  — Get returns nil only if the reference was released/revoked:
//	          FA (fully associative, Listing 2), DM (direct mapped),
//	          SA (set associative)
//	relaxed — Get may spuriously return nil after an unrelated Revoke or
//	          Reserve that collides under a hash:
//	          XO (exclusive ownership, Listing 3), SO (shared ownership),
//	          V (versioned, Listing 4)
//
// References are arena.Handle values transported as uint64; 0 means nil.
//
// The paper presents the algorithms with one reservation per thread and
// notes the extension to sets is straightforward; the data structures in
// this repository need exactly one (the window start), so one is what these
// implementations provide.
package core

import (
	"fmt"

	"hohtx/internal/stm"
)

// Reservation is the revocable reservation shared object (paper §2,
// Listing 1). All methods except Register must be called from within a
// transaction. tid identifies the calling thread and must be in
// [0, Config.Threads); concurrent callers must use distinct tids.
type Reservation interface {
	// Register announces that thread tid will use the object. It must be
	// called (once) before the thread's first transactional operation,
	// and is idempotent.
	Register(tid int)
	// Reserve records ref as tid's reservation, replacing any prior one.
	Reserve(tx *stm.Tx, tid int, ref uint64)
	// Release drops tid's reservation.
	Release(tx *stm.Tx, tid int)
	// Get returns tid's reserved reference, or 0 if it has none, released
	// it, or it was revoked (relaxed kinds may also return 0 spuriously;
	// see Kind.Strict).
	Get(tx *stm.Tx, tid int) uint64
	// Revoke removes ref from every thread's reservation.
	Revoke(tx *stm.Tx, ref uint64)
}

// Kind enumerates the six reservation kinds.
type Kind uint8

const (
	// KindFA is the fully associative strict scheme (Listing 2).
	KindFA Kind = iota
	// KindDM is the direct-mapped strict scheme: SA with one array.
	KindDM
	// KindSA is the set-associative strict scheme.
	KindSA
	// KindXO is the exclusive-ownership relaxed scheme (Listing 3): SO
	// with one table.
	KindXO
	// KindSO is the shared-ownership relaxed scheme.
	KindSO
	// KindV is the versioned relaxed scheme (Listing 4).
	KindV

	// NumKinds is the number of reservation kinds.
	NumKinds
)

// kindSpec is one row of the kind table: the paper's label, whether Get is
// precise, and how to build the reservation from a defaulted Config.
type kindSpec struct {
	name   string
	strict bool
	build  func(Config) Reservation
}

// kinds is indexed by Kind; New, Kind.String and Kind.Strict read it, so
// adding a kind is one row here.
var kinds = [NumKinds]kindSpec{
	KindFA: {"RR-FA", true, newFA},
	KindDM: {"RR-DM", true, func(c Config) Reservation { return newSA(c, 1) }},
	KindSA: {"RR-SA", true, func(c Config) Reservation { return newSA(c, c.Assoc) }},
	KindXO: {"RR-XO", false, func(c Config) Reservation { return newSO(c, 1) }},
	KindSO: {"RR-SO", false, func(c Config) Reservation { return newSO(c, c.Assoc) }},
	KindV:  {"RR-V", false, newV},
}

// String returns the paper's name for the kind.
func (k Kind) String() string {
	if k < NumKinds {
		return kinds[k].name
	}
	return fmt.Sprintf("RR-?%d", uint8(k))
}

// Strict reports whether the kind's Get is precise: a non-spurious nil
// implies the reference was truly released or revoked. The doubly linked
// list's unlink-in-a-second-transaction optimization is only sound for
// strict kinds (§4.2).
func (k Kind) Strict() bool { return k < NumKinds && kinds[k].strict }

// Kinds returns all six kinds in the paper's presentation order.
func Kinds() []Kind {
	out := make([]Kind, NumKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Config parameterizes reservation construction.
type Config struct {
	// Threads is the number of distinct tids that will use the object.
	// Required.
	Threads int
	// TableBits sizes the hash-indexed metadata arrays (buckets for
	// DM/SA, ownership/version tables for XO/SO/V) at 1<<TableBits
	// entries. Default 14.
	TableBits int
	// Assoc is A, the number of arrays in the set-associative schemes
	// (SA and SO; DM and XO are their A = 1 rows and ignore it). Default
	// 8, the value used in the paper's evaluation.
	Assoc int
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 64
	}
	if c.TableBits <= 0 {
		c.TableBits = 14
	}
	if c.Assoc <= 0 {
		c.Assoc = 8
	}
	return c
}

// New constructs a reservation of the given kind.
func New(k Kind, cfg Config) Reservation {
	if k >= NumKinds {
		panic(fmt.Sprintf("core: unknown reservation kind %d", k))
	}
	return kinds[k].build(cfg.withDefaults())
}

// Mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mix with no
// state. Reservation tables, hash buckets, shard routing (after a gamma add)
// and the load generators' RNG step all hash through it.
func Mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// hashRef maps a reference to a table slot. Arena handles differ in both
// index and generation bits; the mix spreads either.
func hashRef(ref uint64, mask uint64) uint64 { return Mix64(ref) & mask }
