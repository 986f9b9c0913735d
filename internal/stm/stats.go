package stm

import (
	"fmt"
	"sync/atomic"
)

// statBlock is one set of published counters. Every context a tid owns has
// its own, which only that tid's goroutine adds to; the pooled contexts
// (tid -1, or an owned context found busy) share the runtime's fallback
// block. A block is a whole number of cache lines (six), a size the
// allocator hands out 64-byte aligned (TestTxLayout), so no counter line is
// ever written by two tids.
type statBlock struct {
	commits       atomic.Uint64
	writeCommits  atomic.Uint64
	serialCommits atomic.Uint64
	extensions    atomic.Uint64
	commitSlow    atomic.Uint64
	aborts        [numCauses]atomic.Uint64
	batch         [BatchBuckets]batchBlock
	_             [8]byte // fills the sixth line
}

type batchBlock struct {
	txs    atomic.Uint64
	ops    atomic.Uint64
	aborts atomic.Uint64
	serial atomic.Uint64
}

// countCommit counts one committed window in the context's private fields;
// flush publishes them. A chain of windows therefore costs its counter line
// one atomic add per counter, not one per window.
func (tx *Tx) countCommit() {
	tx.commits++
	if len(tx.ws) != 0 {
		// The commit that locked cells and drew a write version; the
		// read-only return in Tx.commit never reaches this.
		tx.writeCommits++
	}
	if tx.serial {
		tx.serialCommits++
	}
}

// countBatch attributes one committed batch transaction to its size bucket:
// the speculative attempts it burned before committing and whether it had
// to fall back to serial mode.
func (tx *Tx) countBatch(n int, aborted uint64) {
	b := &tx.stats.batch[BatchBucket(n)]
	b.txs.Add(1)
	b.ops.Add(uint64(n))
	if aborted > 0 {
		b.aborts.Add(aborted)
	}
	if tx.serial {
		b.serial.Add(1)
	}
}

// flush publishes the context's private counters into its block and zeroes
// them. commits goes first: Stats reads writeCommits before commits, so
// WriteCommits <= Commits holds in every concurrent snapshot.
func (tx *Tx) flush() {
	b := tx.stats
	if tx.commits != 0 {
		b.commits.Add(uint64(tx.commits))
		tx.commits = 0
	}
	if tx.writeCommits != 0 {
		b.writeCommits.Add(uint64(tx.writeCommits))
		tx.writeCommits = 0
	}
	if tx.serialCommits != 0 {
		b.serialCommits.Add(uint64(tx.serialCommits))
		tx.serialCommits = 0
	}
	if tx.extensions != 0 {
		b.extensions.Add(tx.extensions)
		tx.extensions = 0
	}
	if tx.slowPaths != 0 {
		b.commitSlow.Add(tx.slowPaths)
		tx.slowPaths = 0
	}
}

// Stats is a snapshot of a runtime's transaction statistics. Counters are
// read without mutual exclusion and a chain publishes its counts when it
// ends, so a snapshot lags by the chains in flight and is exact when there
// are none.
type Stats struct {
	Commits uint64
	// WriteCommits counts the commits that had a write set: they locked
	// cells, drew a write version from the clock and (unless alone)
	// revalidated their reads. The rest committed read-only, at their
	// snapshot, touching no shared state; see ReadOnlyCommits.
	WriteCommits  uint64
	SerialCommits uint64
	Extensions    uint64
	Aborts        [int(numCauses)]uint64

	// BiasRevocations counts serial-mode writers that found the commit
	// lock reader-biased and had to revoke it (see biaslock.go).
	BiasRevocations uint64
	// WriterWaits counts a revocation sweep's spin-waits on claimed
	// commit slots.
	WriterWaits uint64
	// CommitSlowPath counts speculative commits that fell through to the
	// underlying rwlock (bias revoked, or slot hash collision).
	CommitSlowPath uint64

	// Batch breaks batch transactions (AtomicBatchT) down by batch-size
	// bucket; Batch[i] covers sizes [2^i, 2^(i+1)) with the last bucket
	// open-ended. Single-op transactions do not appear here.
	Batch [BatchBuckets]BatchStat
}

// Add accumulates o into s, field by field: how several runtimes' counters
// (one per shard) become one aggregate. Every numeric field must be summed
// here — serve.TestStatsAddSumsEveryField fails on one that is not.
func (s *Stats) Add(o Stats) {
	s.Commits += o.Commits
	s.WriteCommits += o.WriteCommits
	s.SerialCommits += o.SerialCommits
	s.Extensions += o.Extensions
	for c := range o.Aborts {
		s.Aborts[c] += o.Aborts[c]
	}
	s.BiasRevocations += o.BiasRevocations
	s.WriterWaits += o.WriterWaits
	s.CommitSlowPath += o.CommitSlowPath
	for b := range o.Batch {
		s.Batch[b].Txs += o.Batch[b].Txs
		s.Batch[b].Ops += o.Batch[b].Ops
		s.Batch[b].Aborts += o.Batch[b].Aborts
		s.Batch[b].Serial += o.Batch[b].Serial
	}
}

// BatchBuckets is the number of log₂ batch-size buckets tracked by the
// runtime: 1, 2–3, 4–7, …, with the last bucket covering ≥ 2^(BatchBuckets-1).
const BatchBuckets = 9

// BatchBucket maps a batch size (≥ 1) to its bucket index: floor(log₂ n),
// capped at BatchBuckets-1.
func BatchBucket(n int) int {
	b := 0
	for n > 1 && b < BatchBuckets-1 {
		n >>= 1
		b++
	}
	return b
}

// BatchBucketLabel names bucket i by its lower bound ("1", "2", "4", …),
// usable directly in metric names.
func BatchBucketLabel(i int) string {
	return fmt.Sprint(1 << uint(i))
}

// BatchStat is the per-bucket slice of batch-transaction statistics.
type BatchStat struct {
	// Txs counts committed batch transactions in this size bucket.
	Txs uint64
	// Ops counts the operations those transactions carried.
	Ops uint64
	// Aborts counts the speculative attempts they burned before
	// committing (capacity overflows, conflicts, …).
	Aborts uint64
	// Serial counts the commits that needed the serial fallback — the
	// per-batch-size face of the capacity cliff.
	Serial uint64
}

// ReadOnlyCommits is the number of commits that wrote no transactional cell.
func (s Stats) ReadOnlyCommits() uint64 { return s.Commits - s.WriteCommits }

// TotalAborts sums aborts across all causes.
func (s Stats) TotalAborts() uint64 {
	var t uint64
	for _, a := range s.Aborts {
		t += a
	}
	return t
}

// String renders the snapshot compactly for logs and examples.
func (s Stats) String() string {
	return fmt.Sprintf(
		"commits=%d (ro=%d rw=%d) serial=%d extensions=%d aborts=%d (read=%d validate=%d wlock=%d capacity=%d explicit=%d) revoke=%d wwait=%d slow=%d",
		s.Commits, s.ReadOnlyCommits(), s.WriteCommits, s.SerialCommits, s.Extensions, s.TotalAborts(),
		s.Aborts[CauseReadConflict], s.Aborts[CauseValidation],
		s.Aborts[CauseWriteLock], s.Aborts[CauseCapacity], s.Aborts[CauseExplicit],
		s.BiasRevocations, s.WriterWaits, s.CommitSlowPath)
}

// blocks calls f on every published counter block: the owned contexts' and
// the fallback.
func (rt *Runtime) blocks(f func(*statBlock)) {
	if t := rt.ctxs.Load(); t != nil {
		for _, tx := range *t {
			if tx != nil {
				f(tx.stats)
			}
		}
	}
	f(&rt.fallback)
}

// Stats returns a snapshot of the runtime's counters.
func (rt *Runtime) Stats() Stats {
	var out Stats
	rt.blocks(func(b *statBlock) {
		// Write commits first; see flush.
		out.WriteCommits += b.writeCommits.Load()
		out.Commits += b.commits.Load()
		out.SerialCommits += b.serialCommits.Load()
		out.Extensions += b.extensions.Load()
		out.CommitSlowPath += b.commitSlow.Load()
		for c := range b.aborts {
			out.Aborts[c] += b.aborts[c].Load()
		}
		for i := range b.batch {
			out.Batch[i].Txs += b.batch[i].txs.Load()
			out.Batch[i].Ops += b.batch[i].ops.Load()
			out.Batch[i].Aborts += b.batch[i].aborts.Load()
			out.Batch[i].Serial += b.batch[i].serial.Load()
		}
	})
	out.BiasRevocations = rt.commitLock.revocations.Load()
	out.WriterWaits = rt.commitLock.writerWaits.Load()
	return out
}

// ResetStats zeroes the runtime's counters (tests call this between
// phases).
func (rt *Runtime) ResetStats() {
	rt.blocks(func(b *statBlock) {
		b.commits.Store(0)
		b.writeCommits.Store(0)
		b.serialCommits.Store(0)
		b.extensions.Store(0)
		b.commitSlow.Store(0)
		for c := range b.aborts {
			b.aborts[c].Store(0)
		}
		for i := range b.batch {
			b.batch[i].txs.Store(0)
			b.batch[i].ops.Store(0)
			b.batch[i].aborts.Store(0)
			b.batch[i].serial.Store(0)
		}
	})
	rt.commitLock.revocations.Store(0)
	rt.commitLock.writerWaits.Store(0)
}
