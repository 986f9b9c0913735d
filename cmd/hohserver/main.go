// Command hohserver serves one of this repository's sets over TCP — the
// end-to-end demonstration that precise memory reclamation survives a
// real serving stack: any number of client connections multiplex onto the
// structure's fixed worker slots through the internal/serve lease pool,
// and the live-node gauge stays flat under sustained external churn.
//
// The protocol is one line per request, one line per reply, pipelined
// (see internal/serve): GET/SET/DEL <key>, LEN, INFO, MULTI <n> — n body
// ops executed as one batch transaction per shard touched — and
// ASCEND <lo> <n>, which streams up to n keys >= lo in ascending order
// as OK lines terminated by END. Scans run on the structure's Ascender
// reservation cursor (weakly consistent, sync.Map.Range-style; sharded
// servers merge one cursor per shard); variants without scan support
// advertise scan=none in INFO and answer ERR scan unsupported.
//
// Usage:
//
//	hohserver                                  # RR-V singly list on 127.0.0.1:7070
//	hohserver -family etree -variant TMHP      # any row × variant of internal/family
//	hohserver -family skip -variant TMVBR      # extended matrix (DESIGN.md §14)
//	hohserver -shards 4 -threads 2             # 4 independent STM instances
//	hohserver -addr :7070 -threads 8 -obs 127.0.0.1:6070
//
// MULTI frames are capped at serve.DefaultMaxBatch ops (oversized frames
// get one ERR line and execute nothing). A pipelined burst of plain
// GET/SET/DEL runs as one hand-over-hand pass per shard (DESIGN.md §11);
// replies are what the requests would get one at a time.
//
// With -shards N the key space hash-partitions across N fully independent
// instances — each with its own global version clock, serial-fallback
// lock, arena, and lease pool — behind the unchanged wire protocol:
// GET/SET/DEL route by key, LEN and INFO aggregate exactly. -threads is
// then the per-shard worker-slot count, so total concurrency is
// threads × shards; when that product exceeds GOMAXPROCS the slots can
// only time-slice, so hohserver warns, and clamps the default -threads
// down to fit (an explicit -threads is respected, with the warning).
//
// The server always keeps its own domain — per-verb service-time
// histograms, per-shard commit/serial/lease roll-up gauges next to
// shard_count, request spans feeding the slowlog (the SLOWLOG verb) and
// the hot-key sketches — and one per shard's pool ("server-pool-s<i>":
// lease-wait histogram, backpressure gauges). With -obs the process also
// serves them over HTTP (/metrics, /snapshot, /slowlog, /hotkeys,
// /debug/pprof/) and attaches each shard's transaction-level domain:
// commit latency, retire→free delay, and the flight recorder with its
// who-aborted-whom matrix behind /flight.
// SIGINT/SIGTERM drain gracefully: accepting stops, in-flight pipelines
// finish, worker slots are flushed, and the final stats line prints; a
// drain whose verdict finds the books unbalanced exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hohtx"
	"hohtx/internal/bench"
	"hohtx/internal/family"
	"hohtx/internal/obs"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "TCP listen address")
	fam := flag.String("family", family.Singly, "structure family: "+strings.Join(family.Names(), ", "))
	variant := flag.String("variant", "RR-V", "variant the family takes (an undefined one lists them)")
	threads := flag.Int("threads", 8, "worker slots per shard (the set's Threads)")
	shards := flag.Int("shards", 1, "independent STM instances; keys hash-partition across them")
	obsAddr := flag.String("obs", "", "observability endpoint address (empty = off)")
	flag.Parse()

	if *shards < 1 {
		*shards = 1
	}
	threadsExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "threads" {
			threadsExplicit = true
		}
	})
	if procs := runtime.GOMAXPROCS(0); *threads**shards > procs {
		if threadsExplicit {
			fmt.Fprintf(os.Stderr,
				"hohserver: warning: %d slots (%d threads × %d shards) exceed GOMAXPROCS=%d; slots will time-slice\n",
				*threads**shards, *threads, *shards, procs)
		} else {
			clamped := procs / *shards
			if clamped < 1 {
				clamped = 1
			}
			fmt.Fprintf(os.Stderr,
				"hohserver: default %d threads × %d shards exceed GOMAXPROCS=%d; clamping to -threads %d (pass -threads to override)\n",
				*threads, *shards, procs, clamped)
			*threads = clamped
		}
	}

	spec := bench.VariantSpec{
		Name: *variant,
		// The per-transaction domain is only worth its sampling cost when
		// someone can look at it.
		Observe: *obsAddr != "",
	}
	sharded, err := bench.BuildSharded(bench.Family(*fam), spec, *threads, *shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hohserver:", err)
		os.Exit(2)
	}

	// One observability domain for the server itself, one per shard for
	// that shard's lease pool — pools publish gauges by name, so they
	// cannot share a domain without clobbering each other.
	dom := obs.NewDomain(obs.DomainConfig{Name: "server", Threads: *threads})
	backends := make([]serve.Backend, *shards)
	pools := make([]*serve.Pool, *shards)
	var poolDoms []*obs.Domain
	for i := range backends {
		poolDom := dom
		if *shards > 1 {
			poolDom = obs.NewDomain(obs.DomainConfig{
				Name:    fmt.Sprintf("server-pool-s%d", i),
				Threads: *threads,
			})
			poolDoms = append(poolDoms, poolDom)
		}
		pools[i] = serve.NewPool(sharded.Shard(i), serve.PoolConfig{Slots: *threads, Obs: poolDom})
		backends[i] = serve.Backend{Set: sharded.Shard(i), Pool: pools[i]}
	}
	// Per-shard roll-ups on the server domain: one glance at /metrics
	// shows whether commits (and serial fallbacks, and lease traffic)
	// spread across shards or pile onto one, and — ro_commits against
	// rw_commits — which kind of window transaction the shard is running.
	for i := range backends {
		i := i
		set, pool := backends[i].Set, pools[i]
		dom.Gauge(fmt.Sprintf("shard%d_commits", i), func() uint64 { return hohtx.StatsOf(set).Commits })
		dom.Gauge(fmt.Sprintf("shard%d_ro_commits", i), func() uint64 { return hohtx.StatsOf(set).ReadOnlyCommits() })
		dom.Gauge(fmt.Sprintf("shard%d_rw_commits", i), func() uint64 { return hohtx.StatsOf(set).WriteCommits })
		dom.Gauge(fmt.Sprintf("shard%d_serial", i), func() uint64 { return hohtx.StatsOf(set).Serial })
		dom.Gauge(fmt.Sprintf("shard%d_leases", i), func() uint64 { return pool.Stats().Leases })
	}

	// Bind the observability endpoint before the server exists so the
	// bound address (the OS may pick the port) can be advertised to
	// clients through INFO obs=<addr> — hohload auto-discovers the
	// forensics endpoints that way.
	boundObs := ""
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		reg.Register(dom)
		for _, pd := range poolDoms {
			reg.Register(pd)
		}
		for i := 0; i < sharded.ShardCount(); i++ {
			if or, ok := sharded.Shard(i).(sets.ObsReporter); ok {
				reg.Register(or.ObsDomain())
			}
		}
		bound, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hohserver: obs:", err)
			os.Exit(2)
		}
		boundObs = bound.String()
		fmt.Fprintf(os.Stderr, "hohserver: obs endpoint on http://%s/metrics\n", bound)
	}

	srv := serve.NewServer(serve.ServerConfig{
		Shards: backends, MaxKey: hohtx.MaxKey, Obs: dom, ObsAddr: boundObs,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hohserver:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "hohserver: %s/%s, %d shard(s) × %d worker slots, listening on %s\n",
		*fam, sharded.Name(), *shards, *threads, ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	var drain error // Shutdown's verdict: unbalanced books exit 1
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "hohserver: %v: draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if drain = srv.Shutdown(ctx); errors.Is(drain, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "hohserver: forced close: in-flight pipelines outlasted the drain")
		}
		<-done
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, "hohserver:", err)
			os.Exit(1)
		}
	}

	var st serve.PoolStats
	for _, p := range pools {
		ps := p.Stats()
		st.Leases += ps.Leases
		st.Waits += ps.Waits
		st.WaitNs += ps.WaitNs
		st.AffinityHits += ps.AffinityHits
		st.Rejections += ps.Rejections
		st.PeakWaiters += ps.PeakWaiters // sum across shards: an upper bound
	}
	fmt.Fprintf(os.Stderr,
		"hohserver: drained; keys=%d leases=%d waits=%d avg_wait=%s affinity=%d rejections=%d peak_waiters=%d\n",
		srv.Len(), st.Leases, st.Waits, avgWait(st), st.AffinityHits, st.Rejections, st.PeakWaiters)
	if tx := hohtx.StatsOf(sharded); tx.Commits > 0 {
		fmt.Fprintf(os.Stderr, "hohserver: tx commits=%d ro_commits=%d rw_commits=%d aborts=%d serial=%d\n",
			tx.Commits, tx.ReadOnlyCommits(), tx.WriteCommits, tx.Aborts, tx.Serial)
	}
	if errors.Is(drain, serve.ErrUnbalanced) {
		fmt.Fprintln(os.Stderr, "hohserver:", drain)
		os.Exit(1)
	}
}

func avgWait(st serve.PoolStats) time.Duration {
	if st.Waits == 0 {
		return 0
	}
	return time.Duration(st.WaitNs / st.Waits)
}
