package stm

import (
	"fmt"
	"sync/atomic"

	"hohtx/internal/pad"
)

// statShards spreads counter updates across cache lines to keep statistics
// collection from becoming its own scalability bottleneck. Must stay a
// power of two: shard selection masks with statShards-1.
const statShards = 16

type statShard struct {
	commits       atomic.Uint64
	writeCommits  atomic.Uint64
	serialCommits atomic.Uint64
	extensions    atomic.Uint64
	clockCASes    atomic.Uint64
	commitSlow    atomic.Uint64
	aborts        [numCauses]atomic.Uint64
	batch         [BatchBuckets]batchShard
	_             pad.Line
}

type batchShard struct {
	txs    atomic.Uint64
	ops    atomic.Uint64
	aborts atomic.Uint64
	serial atomic.Uint64
}

type statCounters struct {
	shards [statShards]statShard
}

func (s *statCounters) shard(tx *Tx) *statShard {
	return &s.shards[tx.rng&(statShards-1)]
}

func (s *statCounters) record(tx *Tx, serial bool) {
	sh := s.shard(tx)
	sh.commits.Add(1)
	if len(tx.ws) != 0 {
		// The commit that locked cells and drew a write version; the
		// read-only return in Tx.commit never reaches this add.
		sh.writeCommits.Add(1)
	}
	if serial {
		sh.serialCommits.Add(1)
	}
	s.flushTx(sh, tx)
}

// recordBatch attributes one committed batch transaction to its size
// bucket: the speculative attempts it burned before committing and
// whether it had to fall back to serial mode.
func (s *statCounters) recordBatch(tx *Tx, n int, aborted uint64, serial bool) {
	b := &s.shard(tx).batch[BatchBucket(n)]
	b.txs.Add(1)
	b.ops.Add(uint64(n))
	if aborted > 0 {
		b.aborts.Add(aborted)
	}
	if serial {
		b.serial.Add(1)
	}
}

func (s *statCounters) recordAbort(tx *Tx) {
	sh := s.shard(tx)
	sh.aborts[tx.cause].Add(1)
	s.flushTx(sh, tx)
}

// flushTx folds the transaction-local counters into the shard.
func (s *statCounters) flushTx(sh *statShard, tx *Tx) {
	if tx.extensions > 0 {
		sh.extensions.Add(tx.extensions)
		tx.extensions = 0
	}
	if tx.clockCASes > 0 {
		sh.clockCASes.Add(tx.clockCASes)
		tx.clockCASes = 0
	}
	if tx.slowPaths > 0 {
		sh.commitSlow.Add(tx.slowPaths)
		tx.slowPaths = 0
	}
}

// Stats is a consistent-enough snapshot of a runtime's transaction
// statistics (counters are read without mutual exclusion; totals may lag
// in-flight transactions by a few counts).
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

	// ClockCASes counts CAS attempts on the global clock pair. Under GV1
	// it is always zero (writers use Add); under GV5 it measures how much
	// clock traffic validation-driven advances actually generate.
	ClockCASes uint64
	// BiasRevocations counts serial-mode writers that found the commit
	// lock reader-biased and had to revoke it (see biaslock.go).
	BiasRevocations uint64
	// WriterWaits counts spin-waits on claimed commit slots, from both
	// revocation sweeps and lazy-clock drains.
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
	s.ClockCASes += o.ClockCASes
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

// AbortRate returns aborted attempts per committed transaction.
func (s Stats) AbortRate() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.TotalAborts()) / float64(s.Commits)
}

// String renders the snapshot compactly for logs and examples.
func (s Stats) String() string {
	return fmt.Sprintf(
		"commits=%d (ro=%d rw=%d) serial=%d extensions=%d aborts=%d (read=%d validate=%d wlock=%d capacity=%d explicit=%d) clockcas=%d revoke=%d wwait=%d slow=%d",
		s.Commits, s.ReadOnlyCommits(), s.WriteCommits, s.SerialCommits, s.Extensions, s.TotalAborts(),
		s.Aborts[CauseReadConflict], s.Aborts[CauseValidation],
		s.Aborts[CauseWriteLock], s.Aborts[CauseCapacity], s.Aborts[CauseExplicit],
		s.ClockCASes, s.BiasRevocations, s.WriterWaits, s.CommitSlowPath)
}

// Stats returns a snapshot of the runtime's counters.
func (rt *Runtime) Stats() Stats {
	var out Stats
	for i := range rt.stats.shards {
		sh := &rt.stats.shards[i]
		// Write commits first: record adds to commits before writeCommits,
		// so this order keeps WriteCommits <= Commits in every snapshot
		// (ReadOnlyCommits never underflows under load).
		out.WriteCommits += sh.writeCommits.Load()
		out.Commits += sh.commits.Load()
		out.SerialCommits += sh.serialCommits.Load()
		out.Extensions += sh.extensions.Load()
		out.ClockCASes += sh.clockCASes.Load()
		out.CommitSlowPath += sh.commitSlow.Load()
		for c := 0; c < int(numCauses); c++ {
			out.Aborts[c] += sh.aborts[c].Load()
		}
		for b := 0; b < BatchBuckets; b++ {
			out.Batch[b].Txs += sh.batch[b].txs.Load()
			out.Batch[b].Ops += sh.batch[b].ops.Load()
			out.Batch[b].Aborts += sh.batch[b].aborts.Load()
			out.Batch[b].Serial += sh.batch[b].serial.Load()
		}
	}
	out.BiasRevocations = rt.commitLock.revocations.Load()
	out.WriterWaits = rt.commitLock.writerWaits.Load()
	return out
}

// ResetStats zeroes the runtime's counters (benchmarks call this between
// measurement phases).
func (rt *Runtime) ResetStats() {
	for i := range rt.stats.shards {
		sh := &rt.stats.shards[i]
		sh.commits.Store(0)
		sh.writeCommits.Store(0)
		sh.serialCommits.Store(0)
		sh.extensions.Store(0)
		sh.clockCASes.Store(0)
		sh.commitSlow.Store(0)
		for c := 0; c < int(numCauses); c++ {
			sh.aborts[c].Store(0)
		}
		for b := 0; b < BatchBuckets; b++ {
			sh.batch[b].txs.Store(0)
			sh.batch[b].ops.Store(0)
			sh.batch[b].aborts.Store(0)
			sh.batch[b].serial.Store(0)
		}
	}
	rt.commitLock.revocations.Store(0)
	rt.commitLock.writerWaits.Store(0)
}
