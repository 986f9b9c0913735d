package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hohtx"
	"hohtx/internal/bench"
	"hohtx/internal/obs"
	"hohtx/internal/serve"
)

// stack is the server under test, assembled in-process the way
// cmd/hohserver's main does it: bench.BuildSharded, one serve.Pool per
// shard, one serve.Server over them. hohserver always hands the server and
// the pools an obs domain (request spans and the slowlog are armed even
// without -obs), so the benchmark does too; observe additionally attaches
// the per-transaction domains `hohserver -obs` turns on.
type stack struct {
	sharded   *serve.Sharded
	pools     []*serve.Pool
	srv       *serve.Server
	sentinels uint64 // LiveNodes of the empty structure
	served    chan error
}

// buildSets constructs just the structures, each shard for threads worker
// ids: w.slots behind a pool, one per caller when rung (a) calls them
// directly.
func buildSets(w *workload, threads, shards int, observe bool) (*serve.Sharded, error) {
	spec := bench.VariantSpec{Name: w.variant, Observe: observe}
	return bench.BuildSharded(w.family, spec, threads, shards)
}

func buildPools(w *workload, sharded *serve.Sharded, dom *obs.Domain) []*serve.Pool {
	pools := make([]*serve.Pool, sharded.ShardCount())
	for i := range pools {
		poolDom := dom
		if len(pools) > 1 {
			poolDom = obs.NewDomain(obs.DomainConfig{Name: fmt.Sprintf("server-pool-s%d", i), Threads: w.slots})
		}
		pools[i] = serve.NewPool(sharded.Shard(i), serve.PoolConfig{Slots: w.slots, Obs: poolDom})
	}
	return pools
}

// startStack builds the server and serves ln until shutdown.
func startStack(w *workload, shards int, observe bool, ln net.Listener) (*stack, error) {
	sharded, err := buildSets(w, w.slots, shards, observe)
	if err != nil {
		return nil, err
	}
	dom := obs.NewDomain(obs.DomainConfig{Name: "server", Threads: w.slots})
	st := &stack{sharded: sharded, sentinels: sharded.LiveNodes(), served: make(chan error, 1)}
	st.pools = buildPools(w, sharded, dom)
	backends := make([]serve.Backend, len(st.pools))
	for i, p := range st.pools {
		backends[i] = serve.Backend{Set: sharded.Shard(i), Pool: p}
	}
	st.srv = serve.NewServer(serve.ServerConfig{Shards: backends, MaxKey: hohtx.MaxKey, Obs: dom})
	go func() { st.served <- st.srv.Serve(ln) }()
	return st, nil
}

// shutdown drains the server (which closes the pools and so flushes every
// worker slot's deferred reclamation) and waits for Serve to return.
func (st *stack) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	return errors.Join(err, <-st.served)
}

// memListener is ladder rung (c)'s transport: a net.Listener whose
// connections are net.Pipe ends, so everything the server does per request
// runs — scanner, parser, leases, reply rendering, the connection goroutine
// — except the kernel's socket path. A pipe is synchronous, and the closed
// loop suits it: a burst is one Write the server's scanner takes whole, and
// by the time the server writes replies the caller is reading.
type memListener struct {
	accept chan net.Conn
	once   sync.Once
	closed chan struct{}
}

func newMemListener() *memListener {
	return &memListener{accept: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

// dial returns the client end of a new connection.
func (l *memListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.accept <- server:
		return client, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }
