package stm

import "hohtx/internal/obs"

// Atomic executes fn as a transaction, retrying on conflicts until it
// commits. Per the runtime's profile, after MaxAttempts speculative
// failures — or immediately after a capacity overflow — the transaction is
// re-run in serial mode under an exclusive lock, where it cannot fail.
//
// fn may be executed multiple times and must therefore be free of side
// effects other than through transactional cells, Tx.OnCommitCall and
// Tx.OnAbortCall. fn must not start nested Atomic transactions on any
// runtime.
//
// A panic in fn (other than the internal abort signal) propagates to the
// caller after locks are released and abort hooks run.
func (rt *Runtime) Atomic(fn func(*Tx)) { rt.AtomicT(-1, fn) }

// AtomicT is Atomic with the caller's thread id, which selects the
// transaction context (tid >= 0 runs in the context that tid owns; see
// Chain) and flows into the observability layer (flight-recorder events and
// abort attribution carry it). tid -1 means unknown; the transaction
// semantics are identical.
func (rt *Runtime) AtomicT(tid int, fn func(*Tx)) { rt.AtomicBatchT(tid, 0, fn) }

// AtomicBatchT is AtomicT for a batch entry point: fn carries n logical
// operations in one transaction. n does not change the execution — it
// flows into the per-batch-size statistics (log₂ buckets of aborts and
// serial fallbacks, see Stats.Batch) so the capacity cliff is measurable
// as a function of batch size rather than inferred from aggregates.
func (rt *Runtime) AtomicBatchT(tid, n int, fn func(*Tx)) {
	// One transaction is a chain of one.
	rt.chain(tid, n, func(tx *Tx) bool { fn(tx); return false })
}

// Chain runs fn as successive transactions on one thread — the windows of a
// hand-over-hand operation — until a committed run of fn returns false.
// Each window is a transaction exactly as Atomic runs one (its own attempt
// loop, serial fallback, hooks, span and sampling decision; fn's result
// counts only from the attempt that commits), and what fn carries from one
// window to the next is the caller's business (reclaim.Link). What the
// chain shares is the context: it is acquired once, released once (deferred,
// so a panic in fn releases it too) and its commit counts reach Stats in one
// flush at the end, so a window costs the thread no shared write at all.
//
// tid >= 0 runs in the context that tid owns, under Local's owner contract:
// one goroutine drives a tid at a time. tid -1, and a tid whose context is
// busy, run in a pooled context instead.
func (rt *Runtime) Chain(tid int, fn func(*Tx) (more bool)) { rt.chain(tid, 0, fn) }

func (rt *Runtime) chain(tid, batch int, fn func(*Tx) bool) {
	tx := rt.acquire(tid)
	defer rt.release(tx)
	// The request span, when the serving layer armed one on this tid,
	// deliberately sits outside the sampling gate: the slowlog it feeds
	// exists to catch outliers, which uniform sampling throws away. With
	// no span armed the cost is one bounds check and one pointer load.
	p := rt.obs
	var sp *obs.Span
	if p != nil {
		sp = p.D.SpanOf(tid)
	}
	for rt.window(tx, p, sp, batch, fn) {
	}
}

// window runs fn as one transaction in tx, retrying until it commits, and
// returns what the committed run returned.
func (rt *Runtime) window(tx *Tx, p *obs.TxProbe, sp *obs.Span, batch int, fn func(*Tx) bool) (more bool) {
	tid := int(tx.tid)
	// One sampling decision per transaction: a sampled transaction is
	// traced and timed end to end. With no probe attached this is one nil
	// check; with sampling disabled, one atomic load and a branch.
	sampled := p != nil && p.D.Sampled(tx.slotHash)
	var t0 int64
	if sampled {
		t0 = obs.Now()
	}

	serial := false
	aborted := uint64(0)
	for attempt := 0; ; attempt++ {
		tx.reset(serial)
		if sampled {
			p.Rec.Emit(tid, obs.EvBegin, 0, 0, uint64(attempt))
		}
		var committed bool
		if sp == nil {
			committed, more = tx.runAttempt(fn)
		} else {
			a0 := obs.Now()
			committed, more = tx.runAttempt(fn)
			ph := obs.SpanAttempts
			if serial {
				ph = obs.SpanSerial
			}
			sp.Add(ph, uint64(obs.Now()-a0))
			sp.NoteAttempt(serial)
		}
		if committed {
			tx.countCommit()
			if batch > 0 {
				tx.countBatch(batch, aborted)
			}
			if sampled {
				tx.noteCommit(p, t0)
			}
			runHooks(tx.commitHooks)
			return more
		}
		aborted++
		tx.stats.aborts[tx.cause].Add(1)
		if sp != nil {
			// Stamp the abort cause and the owner the attribution table
			// blames onto the request — even unsampled, so a slow request's
			// abort chain is never a forensics hole. Owner lookups only read
			// the table; NoteWrite stays sampled, so the blame can be -1
			// (unknown) when the owning transaction was not sampled.
			owner := -1
			if tx.conflict != nil {
				owner = p.Attr.Owner(tx.conflict)
			}
			sp.NoteAbort(uint8(tx.cause), owner)
		}
		if sampled {
			tx.noteAbort(p)
		}
		runHooks(tx.abortHooks)
		if serial {
			// Serial commits cannot fail; reaching here means fn itself
			// aborted (Restart) even in serial mode. Honor it and retry
			// serially: the structure's own logic asked for re-execution.
			continue
		}
		if tx.cause == CauseCapacity || attempt+1 >= rt.prof.MaxAttempts {
			serial = true
			if sampled {
				p.Rec.Emit(tid, obs.EvSerial, uint8(tx.cause), 0, 0)
			}
			continue
		}
		backoff(tx, attempt)
	}
}

// runAttempt executes fn once and tries to commit, converting the internal
// abort panic into a false return. Serial attempts hold the exclusive
// serial lock for their entire duration. Any other panic leaves through
// here too: the attempt's abort hooks run (what it allocated goes back),
// its buffered writes are dropped with it, and the panic goes on to the
// caller of Atomic.
func (tx *Tx) runAttempt(fn func(*Tx) bool) (committed, more bool) {
	if tx.serial {
		tx.rt.commitLock.lock()
		defer tx.rt.commitLock.unlock()
		// Take the snapshot after acquiring the lock so no commit can
		// intervene between snapshot and execution.
		tx.rv = tx.rt.now()
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSig); ok {
				committed = false
				return
			}
			runHooks(tx.abortHooks)
			panic(r)
		}
	}()
	more = fn(tx)
	if !tx.commit() {
		return false, false
	}
	// Committed: publish the thread-private stores (see Local).
	for i := range tx.ls {
		tx.ls[i].dst.v = tx.ls[i].val
	}
	return true, more
}

func runHooks(hooks []txHook) {
	for i := range hooks {
		hooks[i].run()
	}
}

// spinBase scales the bounded exponential backoff between attempts, in
// iterations of a pause loop.
const spinBase = 16

// backoff delays a conflicted transaction before its next attempt, with
// exponentially growing bounded jitter.
func backoff(tx *Tx, attempt int) {
	if attempt > 8 {
		attempt = 8
	}
	limit := uint64(spinBase) << uint(attempt)
	n := tx.nextRand() % (limit + 1)
	for i := uint64(0); i < n; i++ {
		pause(int(i & 7))
	}
}

// Run executes fn transactionally and returns its result; it is Atomic for
// closures that produce a value.
func Run[T any](rt *Runtime, fn func(*Tx) T) T {
	var out T
	rt.Atomic(func(tx *Tx) {
		out = fn(tx)
	})
	return out
}

// Run2 executes fn transactionally and returns both results.
func Run2[A, B any](rt *Runtime, fn func(*Tx) (A, B)) (A, B) {
	var a A
	var b B
	rt.Atomic(func(tx *Tx) {
		a, b = fn(tx)
	})
	return a, b
}
