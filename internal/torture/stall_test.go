package torture

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"hohtx/internal/core"
	"hohtx/internal/family"
	"hohtx/internal/list"
	"hohtx/internal/loadgen"
	"hohtx/internal/reclaim"
	"hohtx/internal/sets"
)

// Epoch-based reclamation through the seam, with its bracket check on: a
// Retire outside an Enter/Exit bracket panics. The list-local ER mode runs
// the same scheme on the singly linked list only; registered, it runs
// under every structure that takes a deferred scheme — TestTortureSweep
// gives it guarded cells on each — so a structure that retires outside its
// operation's bracket fails there.
type guardedEpochs struct {
	reclaim.Scheme
	enters, exits atomic.Int64
}

func (e *guardedEpochs) Enter(tid int) { e.enters.Add(1); e.Scheme.Enter(tid) }
func (e *guardedEpochs) Exit(tid int)  { e.exits.Add(1); e.Scheme.Exit(tid) }

var (
	// epochsOf maps a structure's runtime to the scheme it built.
	epochsOf sync.Map
	ebrMode  = reclaim.RegisterScheme("TMEBR", func(n reclaim.Nodes) reclaim.Scheme {
		n.Config.Guard = true
		e := &guardedEpochs{Scheme: reclaim.NewEpochs(n)}
		epochsOf.Store(n.Runtime, e)
		return e
	})
)

// TestDoublyRemoveIsOneBracket: the doubly linked list's two-phase Remove
// reaches the scheme as one Enter and one Exit — its second phase retires
// inside the first phase's bracket.
func TestDoublyRemoveIsOneBracket(t *testing.T) {
	d := list.NewDoubly(reclaim.Config{Mode: ebrMode, Threads: 1, Window: core.Window{W: 2}})
	d.Register(0)
	for k := uint64(1); k <= 8; k++ {
		d.Insert(0, k)
	}
	v, _ := epochsOf.Load(d.RT)
	e := v.(*guardedEpochs)
	for _, k := range []uint64{6, 6} {
		in, out := e.enters.Load(), e.exits.Load()
		d.Remove(0, k)
		if in, out = e.enters.Load()-in, e.exits.Load()-out; in != 1 || out != 1 {
			t.Fatalf("Remove(%d): %d Enter and %d Exit, want one each", k, in, out)
		}
	}
	if st := e.Stats(); st.Retired != 1 {
		t.Fatalf("%d retired, want the one removed node", st.Retired)
	}
}

// TestStallBound is the robustness check Hyaline (1905.07903) and Brown
// (1712.01044) rank schemes by, run on the code the figures measure: one
// thread parks inside an ASCEND consumer after its first key — mid-scan,
// keeping its cursor's hold and its operation's bracket — while another
// churns inserts and removes. What the stall holds back is bounded per
// mechanism (stallBound); once the consumer returns, the scan completes and
// the books drain to nothing deferred.
func TestStallBound(t *testing.T) {
	for _, structure := range []string{family.Singly, family.Skip} {
		row, _ := family.ByName(structure)
		for _, variant := range []string{"RR-V", "HTM", "TMHP", "TMHE", "TMVBR", "ER", ebrMode.String()} {
			if !slices.Contains(row.Variants(), variant) {
				continue // ER is the singly linked list's own
			}
			t.Run(structure+"/"+variant, func(t *testing.T) {
				t.Parallel()
				stall(t, structure, variant)
			})
		}
	}
}

// The stall's shape: resident keys at the park, and churn operations
// (alternate inserts and removes of random keys in twice that range) while
// it lasts.
const (
	stallResident = 256
	stallChurn    = 2000
)

// stallBound is the range of retirees a thread parked mid-operation may
// hold back under variant, whose traits are tr, when retired nodes were
// retired during the park:
//   - nothing under precise reclamation (RR, HTM);
//   - one scan batch under hazard pointers: the parked thread pins only
//     what its slots name;
//   - the keys resident at the park, plus one scan batch, under hazard
//     eras: its published era covers every node alive then;
//   - one tick's batch under VBR: the fence moves without the parked thread;
//   - everything retired during the park under epochs (ER, and the
//     registered scheme): the parked bracket holds the epoch, so the
//     deferral grows with the churn.
func stallBound(variant string, tr reclaim.Traits, retired uint64) (least, most uint64) {
	const batch = reclaim.DefaultScanThreshold
	switch {
	case !tr.Deferred:
		return 0, 0
	case tr.StrandBound:
		return 0, batch
	case tr.Pins:
		return 0, stallResident + batch
	case variant == "TMVBR":
		return 0, batch
	}
	return retired, retired
}

// stall parks a scan on structure under variant and churns beside it.
func stall(t *testing.T, structure, variant string) {
	const threads = 2
	inst, err := build(Config{Structure: structure, Variant: variant, Threads: threads, Window: 8, Guard: true}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	s, tr := inst.set, inst.traits
	s.Register(0)
	s.Register(1)
	for k := uint64(2); k <= 2*stallResident; k += 2 {
		s.Insert(1, k)
	}
	parked, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	defer unpark() // a failed check must not leave the scan parked
	var got []uint64
	go func() {
		done <- s.(sets.Ascender).Ascend(0, 0, func(k uint64) bool {
			if got = append(got, k); len(got) == 1 {
				close(parked)
				<-release
			}
			return true
		})
	}()
	<-parked
	before := inst.view.ReclaimStats()
	rng, touched := uint64(0x57a11), map[uint64]bool{}
	for i := range stallChurn {
		k := 1 + loadgen.SplitMix64(&rng)%(2*stallResident)
		if touched[k] = true; i%2 == 0 {
			s.Insert(1, k)
		} else {
			s.Remove(1, k)
		}
	}
	st := inst.view.ReclaimStats()
	retired := st.Retired - before.Retired
	least, most := stallBound(variant, tr, retired)
	t.Logf("parked: %d retired, %d deferred (peak %d), %d leftover; bound [%d, %d]", retired, st.Deferred, st.PeakDeferred, st.Leftover, least, most)
	if tr.Deferred && retired == 0 {
		t.Fatal("degenerate churn: nothing retired")
	}
	if st.Deferred < least || st.Deferred > most {
		t.Fatalf("%d deferred while parked (%d retired): want %d..%d", st.Deferred, retired, least, most)
	}
	if slots := uint64(threads * 2); tr.StrandBound && st.Leftover > slots {
		t.Fatalf("%d leftover retirees while parked: more than the %d hazard slots", st.Leftover, slots)
	}

	unpark()
	if err := <-done; err != nil {
		t.Fatalf("the parked scan: %v", err)
	}
	// Delivered keys ascend, and every key present throughout — resident
	// and never churned — is among them.
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("the parked scan delivered %d after %d", got[i], got[i-1])
		}
	}
	for k := uint64(2); k <= 2*stallResident; k += 2 {
		if !touched[k] && !slices.Contains(got, k) {
			t.Fatalf("the parked scan missed key %d, present throughout", k)
		}
	}
	for range tr.DrainRounds {
		s.Finish(0)
		s.Finish(1)
	}
	if _, err := inst.view.Books(threads, true); err != nil {
		t.Fatal(err)
	}
	if evs := inst.guard.take(); len(evs) != 0 {
		t.Fatalf("guard violations: %v", evs)
	}
}
