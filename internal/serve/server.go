package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hohtx/internal/obs"
	"hohtx/internal/sets"
	"hohtx/internal/stm"
	"hohtx/internal/tree"
)

// drainGrace is how long a draining server lets connections finish the
// pipeline already in flight before their reads time out.
const drainGrace = 250 * time.Millisecond

// DefaultMaxBatch caps MULTI batch sizes when ServerConfig.MaxBatch is
// zero. A batch this large always executes through the serial fallback
// (the capacity cliff sits orders of magnitude lower); the cap exists to
// bound per-request memory, not to keep batches speculative.
const DefaultMaxBatch = 4096

// oversizeDrainFactor bounds how much body the server will consume to
// stay in frame after rejecting an oversized MULTI; counts beyond
// MaxBatch×oversizeDrainFactor drop the connection instead.
const oversizeDrainFactor = 16

// Backend is one shard behind the server: a set plus the lease pool
// multiplexing connections onto that set's worker slots. A single-shard
// server has exactly one backend.
type Backend struct {
	Set  sets.Set
	Pool *Pool
}

// ServerConfig parameterizes NewServer.
type ServerConfig struct {
	// Shards are the backends, at least one: keys route to
	// Shards[ShardOf(key, len(Shards))], each shard leasing from its own
	// pool, while LEN and INFO aggregate across all of them. The wire
	// protocol is identical whatever their number.
	Shards []Backend
	// MaxKey bounds accepted keys to [1, MaxKey]. Zero defaults to the
	// tree sentinel bound (the tightest across the repo's structures).
	MaxKey uint64
	// MaxBatch caps the op count of a MULTI batch; zero means
	// DefaultMaxBatch. Oversized batches are rejected with an ERR line
	// (the connection survives).
	MaxBatch int
	// AutoBatch, when > 1, transparently coalesces a connection's
	// pipelined burst of consecutive single-key requests into batch
	// transactions of at most AutoBatch ops each — the capacity-aware
	// split threshold. Unlike MULTI, auto-batches carry no atomicity
	// contract (the client asked for single ops), which is exactly why
	// splitting them at the serial-fallback cliff is legal. Zero or one
	// disables coalescing. See DESIGN.md §11 for how to size it.
	AutoBatch int
	// Obs, when non-nil, receives per-verb service-time histograms, the
	// batch-path histograms (batch service time, sub-transaction sizes,
	// splits per batch), per-batch-size transaction gauges, and the
	// live/deferred/connection gauges. It also arms request tracing: every
	// request carries an obs.Span through lease acquisition, the STM
	// attempt loop and the reply write, feeding the slowlog (SLOWLOG verb,
	// /slowlog endpoint) and the per-shard hot-key sketches (/hotkeys).
	Obs *obs.Domain
	// ObsAddr, when set, is advertised in INFO as obs=<addr> so load
	// generators can discover the obs endpoint without a second flag.
	ObsAddr string
}

// Server speaks the repository's line protocol over one or more shards:
//
//	GET <key>\n  -> 1\n | 0\n          (membership)
//	SET <key>\n  -> 1\n | 0\n          (1 = inserted, 0 = already present)
//	DEL <key>\n  -> 1\n | 0\n          (1 = removed; memory is already free)
//	MULTI <n>\n  followed by n GET/SET/DEL lines -> n reply lines (one batch)
//	ASCEND <lo> <n>\n -> up to n "OK <k>" lines, keys ≥ lo ascending,
//	                terminated by END\n (or by an ERR line; see below)
//	SLOWLOG <n>\n -> up to n "SLOW …" lines (slowest requests, phase
//	                breakdowns as key=value fields), terminated by END\n
//	LEN\n        -> <n>\n              (keys currently present, all shards)
//	INFO\n       -> variant=… shards=… slots=… keys=… live=… deferred=… conns=…
//	                maxbatch=… autobatch=… multi=… scan=… commits=…
//	                ro_commits=… rw_commits=… serial=… aborts=… [obs=<addr>]\n
//	anything else -> ERR <reason>\n    (connection stays open)
//
// Requests pipeline: a client may write any number of lines before
// reading; replies come back in order. Every line goes through one
// pipeline — parse (the verb table), plan (which shards), bracket (lease a
// worker slot, arm the request span), execute, render — and DESIGN.md §9
// tabulates, verb by verb, what each stage does, what a failure answers
// and which span phases are stamped. What a client must know beyond the
// grammar:
//
//   - MULTI runs one transaction per shard touched: atomic on one shard,
//     per-shard atomic on several (INFO multi=atomic|per-shard). A frame
//     that is rejected — bad count, bad body line, over the cap — answers
//     one ERR line and executes nothing.
//   - ASCEND is weakly consistent in the sync.Map.Range style: keys
//     present for the whole scan are delivered exactly once, delivered
//     keys strictly ascend, churned keys may or may not appear. An ERR
//     line is the scan's alternate terminator; structures without a
//     cursor (trees, hash table) answer "ERR scan unsupported" (INFO
//     scan=atomic-window|merged|none).
//   - Lease-pool saturation is load shedding, never a connection error:
//     the request is answered with an ERR line and the connection, with
//     the rest of its pipeline, stays open. Only pool shutdown and
//     unrecoverable framing drop connections.
//   - An idle connection holds no worker slot on any shard, so
//     connections can outnumber slots by orders of magnitude.
//   - LEN and INFO are the only aggregate views, and both are exact (LEN
//     is one server-level counter, INFO sums each shard's books).
type Server struct {
	shards    []Backend
	view      *Sharded // the backends' sets as one aggregate: INFO, gauges, scan=, span domains
	maxKey    uint64
	maxBatch  int
	autoBatch int
	obsAddr   string // advertised obs endpoint (INFO obs=)

	// Histograms and request tracing; all nil without cfg.Obs.
	dom   *obs.Domain
	probe *obs.ServeProbe
	slow  *obs.Slowlog
	hot   []*obs.HotKeys // per shard

	keys    atomic.Int64  // net successful SET − DEL through this server
	conns   atomic.Int64  // open now
	connSeq atomic.Uint64 // ever opened: the source of conn ids

	mu       sync.Mutex
	open     map[net.Conn]struct{}
	ln       net.Listener
	draining atomic.Bool
	wg       sync.WaitGroup
}

// NewServer wires a server over cfg's backends.
func NewServer(cfg ServerConfig) *Server {
	parts := make([]sets.Set, len(cfg.Shards))
	for i, b := range cfg.Shards {
		parts[i] = b.Set
	}
	s := &Server{
		shards:    cfg.Shards,
		view:      NewSharded(parts),
		maxKey:    cfg.MaxKey,
		maxBatch:  cfg.MaxBatch,
		autoBatch: cfg.AutoBatch,
		obsAddr:   cfg.ObsAddr,
		dom:       cfg.Obs,
		open:      make(map[net.Conn]struct{}),
	}
	if s.maxKey == 0 {
		s.maxKey = tree.MaxKey // the tightest structure bound in the repo
	}
	if s.maxBatch <= 0 {
		s.maxBatch = DefaultMaxBatch
	}
	if d := cfg.Obs; d != nil {
		s.slow = obs.NewSlowlog(obs.DefaultSlowlogSize, obs.DefaultSlowlogWindow)
		d.SetSlowlog(s.slow)
		s.hot = make([]*obs.HotKeys, len(s.shards))
		for i := range s.hot {
			s.hot[i] = obs.NewHotKeys(obs.DefaultTopK)
		}
		d.SetHotKeys(s.hot)
		s.probe = d.ServeProbe()
		d.Gauge("server_keys", func() uint64 { return uint64(s.keys.Load()) })
		d.Gauge("server_conns", func() uint64 { return uint64(s.conns.Load()) })
		d.Gauge("shard_count", func() uint64 { return uint64(len(s.shards)) })
		if len(s.view.mem) > 0 {
			d.Gauge("live_nodes", s.view.LiveNodes)
			d.Gauge("deferred_nodes", s.view.DeferredNodes)
		}
		// Per-batch-size transaction gauges: the measured face of the
		// capacity cliff (aborts and serial fallbacks vs batch size).
		for b := 0; b < stm.BatchBuckets; b++ {
			label := stm.BatchBucketLabel(b)
			d.Gauge("batch_txs_"+label, func() uint64 { return s.view.TMStats().Batch[b].Txs })
			d.Gauge("batch_aborts_"+label, func() uint64 { return s.view.TMStats().Batch[b].Aborts })
			d.Gauge("batch_serial_"+label, func() uint64 { return s.view.TMStats().Batch[b].Serial })
		}
	}
	return s
}

// Len returns the number of keys present across all shards (as counted by
// this server's successful SET/DEL balance).
func (s *Server) Len() int64 { return s.keys.Load() }

// Serve accepts connections on ln until Shutdown closes it. It returns
// nil on a drain-initiated stop and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	if s.draining.Load() {
		_ = ln.Close() // Shutdown came first
	}
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			_ = c.Close()
			continue
		}
		s.open[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(c)
	}
}

// Shutdown drains the server: stop accepting, give in-flight pipelines a
// grace period to finish, then wait for every connection goroutine (or
// force-close them when ctx ends first, which returns ctx.Err()). The pools
// close last, waiting until ctx ends for their leases, and two Finish
// sweeps drain every scheme (reclaim.Traits.DrainRounds). Then the verdict
// (Sharded.Books, DESIGN.md §6): an error wrapping ErrUnbalanced names each
// worker id still leased, with a span armed or its transaction context
// busy, and each shard whose drained books do not balance.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	deadline := time.Now().Add(drainGrace)
	for c := range s.open {
		_ = c.SetReadDeadline(deadline)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.open {
			_ = c.Close()
		}
		s.mu.Unlock()
		<-done
		err = ctx.Err()
	}
	var leased []error
	for i, b := range s.shards {
		if e := b.Pool.shut(ctx); e != nil {
			leased = append(leased, fmt.Errorf("shard %d: %w", i, e))
		}
	}
	if len(leased) > 0 {
		return errors.Join(err, fmt.Errorf("%w: %w", ErrUnbalanced, errors.Join(leased...)))
	}
	for _, b := range s.shards {
		b.Pool.FinishAll()
	}
	_, books := s.view.Books(s.shards[0].Pool.Slots(), true)
	return errors.Join(err, books)
}
