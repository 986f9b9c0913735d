package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"hohtx/internal/bench"
	"hohtx/internal/obs"
	"hohtx/internal/serve"
)

// fakeServer speaks just enough of the wire protocol to keep a connection
// loop going — GET answers 1 for odd keys, SET and DEL answer 1, ASCEND
// answers one OK line and END, MULTI headers answer nothing — while it
// hashes every byte it is sent and, on request, misbehaves at one reply.
// Replies are numbered from 0, one per replying request line.
type fakeServer struct {
	addr    string
	stallAt int // sleep stall before this reply (-1: never)
	stall   time.Duration
	errAt   int         // answer this reply with an ERR line (-1: never)
	cutAt   int         // half-close instead of sending this reply (-1: never)
	digest  chan string // sha256 of each connection's bytes, at its EOF
}

// startFake serves one connection; misbehave, if given, arms the fault
// before the listener's goroutine starts.
func startFake(t *testing.T, misbehave func(*fakeServer)) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{addr: ln.Addr().String(), stallAt: -1, errAt: -1, cutAt: -1, digest: make(chan string, 1)}
	if misbehave != nil {
		misbehave(f)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		f.serve(c.(*net.TCPConn))
	}()
	t.Cleanup(func() { ln.Close(); <-done })
	return f
}

func (f *fakeServer) serve(c *net.TCPConn) {
	sum := sha256.New()
	br := bufio.NewReader(io.TeeReader(c, sum))
	cut := false
	for reply := 0; ; {
		line, err := br.ReadString('\n')
		if err != nil {
			f.digest <- hex.EncodeToString(sum.Sum(nil))
			return
		}
		verb, arg, _ := strings.Cut(strings.TrimSpace(line), " ")
		if verb == "MULTI" || cut {
			continue
		}
		if reply == f.stallAt {
			time.Sleep(f.stall)
		}
		out := "1\n"
		switch {
		case reply == f.errAt:
			out = "ERR injected\n"
		case reply == f.cutAt:
			cut = true // keep reading so the client's writes succeed
			c.CloseWrite()
			continue
		case verb == "ASCEND":
			lo, _, _ := strings.Cut(arg, " ")
			out = "OK " + lo + "\nEND\n"
		case verb == "GET" && (arg[len(arg)-1]-'0')%2 == 0:
			out = "0\n"
		}
		if _, err := io.WriteString(c, out); err != nil {
			return
		}
		reply++
	}
}

// loopCfg is the fixed workload of the loop tests: connection 2 of 3.
func loopCfg(addr string, batch, scanfrac int) *config {
	return &config{addr: addr, conns: 3, depth: 4, keys: 1024, reads: 50, ops: 400,
		batch: batch, scanfrac: scanfrac, scanlen: 16, seed: 7}
}

const loopCid = 2

// drive runs the connection loop once against addr, open-loop iff interval > 0.
func drive(cfg *config, interval time.Duration) (*meters, error) {
	m := newMeters()
	return m, runConn(loopCid, cfg, time.Now(), interval, m)
}

// atLeast counts a histogram's samples in buckets at or above bucket b.
func atLeast(h *obs.Histogram, b int) (n uint64) {
	s := h.Snapshot()
	for i := b; i < len(s.Buckets); i++ {
		n += s.Buckets[i]
	}
	return n
}

// TestByteStreamMatchesParentLoops pins the bytes the loop writes to the
// digests recorded from the four loops it replaced (runConn, runConnOpen,
// runConnBatch, runConnOpenBatch at PR 17), same seed and connection id.
// Loop mode only paces, so open and closed cells share a digest.
func TestByteStreamMatchesParentLoops(t *testing.T) {
	for _, tc := range []struct {
		name            string
		batch, scanfrac int
		want            string
	}{
		{"single", 1, 0, "65e703015779adcc31823c44c5bad0b2ee32330d9b223b8f5da8186432b81f52"},
		{"batch8", 8, 0, "98595b6363a4685e027ca087516f6931bd7e71f7024a194582babd73f54267e2"},
		{"scanfrac10", 1, 10, "716342b66405a6414b923f4e5b918913423071c2773123aa0b89bdf38bb5c275"},
	} {
		for _, interval := range []time.Duration{0, 20 * time.Microsecond} {
			t.Run(fmt.Sprintf("%s/interval=%s", tc.name, interval), func(t *testing.T) {
				f := startFake(t, nil)
				cfg := loopCfg(f.addr, tc.batch, tc.scanfrac)
				m, err := drive(cfg, interval)
				if err != nil {
					t.Fatal(err)
				}
				if got := <-f.digest; got != tc.want {
					t.Errorf("sha256 of the bytes sent = %s, the parent's loop sent %s", got, tc.want)
				}
				if n := m.gets.Load() + m.sets.Load() + m.dels.Load() + m.scans.Load(); n != uint64(cfg.ops) {
					t.Errorf("tallied %d replies, want %d", n, cfg.ops)
				}
				if (m.scans.Load() > 0) != (tc.scanfrac > 0) {
					t.Errorf("scans = %d at scanfrac %d", m.scans.Load(), tc.scanfrac)
				}
				if frames := m.frame.Snapshot().Count; tc.batch > 1 && frames != uint64(cfg.ops/tc.batch) {
					t.Errorf("clocked %d frames, want %d", frames, cfg.ops/tc.batch)
				}
			})
		}
	}
}

func TestOriginArithmetic(t *testing.T) {
	t0 := time.Unix(1_500_000_000, 0)
	const iv = 10 * time.Microsecond
	for _, tc := range []struct {
		conns, cid, batch, i, j int
		ticks                   int // origin − start, in intervals
	}{
		{1, 0, 1, 0, 0, 0},
		{1, 0, 1, 9, 0, 9},
		{3, 2, 1, 0, 0, 2}, // connections interleave on one cadence
		{3, 2, 1, 5, 0, 17},
		{1, 0, 8, 0, 0, 0}, // a frame's ops keep their own per-op slots,
		{1, 0, 8, 0, 7, 7}, // so a frame due at its last op charges its first 7 intervals
		{1, 0, 8, 4, 7, 39},
		{3, 1, 8, 2, 3, 59},
	} {
		k := clock{start: t0, interval: iv, conns: tc.conns, cid: tc.cid, batch: tc.batch}
		if got := k.origin(tc.i, tc.j).Sub(t0); got != time.Duration(tc.ticks)*iv {
			t.Errorf("conns %d cid %d batch %d: origin(%d, %d) = start+%s, want start+%s",
				tc.conns, tc.cid, tc.batch, tc.i, tc.j, got, time.Duration(tc.ticks)*iv)
		}
	}
	// Closed loop: every op of request i is clocked from the moment the
	// request was sent, read back from a ring one pipeline deep.
	k := clock{conns: 3, cid: 2, batch: 8, sentAt: []time.Time{t0, t0.Add(1), t0.Add(2), t0.Add(3)}}
	for i := 0; i < 9; i++ {
		if got := k.origin(i, 5); got != k.sentAt[i%4] {
			t.Errorf("closed origin(%d, 5) = %v, want sentAt[%d]", i, got, i%4)
		}
	}
}

// TestCoordinatedOmission stalls the server 50 ms before reply 10. In open
// loop request i is due at start + i ms whether or not the server answers,
// so every request due during the stall is charged what remained of it:
// i ≤ 43 waits ≥ 17 ms, i ≤ 26 waits ≥ 34 ms. In closed loop the generator
// stops with the server, and only the requests in flight see the stall.
func TestCoordinatedOmission(t *testing.T) {
	const ms16, ms33 = 25, 26 // log₂ buckets: ≥ 2^24 ns, ≥ 2^25 ns
	stalled := func(t *testing.T) *config {
		f := startFake(t, func(f *fakeServer) { f.stallAt, f.stall = 10, 50*time.Millisecond })
		cfg := loopCfg(f.addr, 1, 0)
		cfg.conns, cfg.ops = 1, 100
		return cfg
	}
	t.Run("open", func(t *testing.T) {
		cfg := stalled(t)
		m := newMeters()
		if err := runConn(0, cfg, time.Now(), time.Millisecond, m); err != nil {
			t.Fatal(err)
		}
		if n := atLeast(m.op, ms16); n < 34 {
			t.Errorf("%d requests charged ≥ 16.8 ms, want ≥ 34 (requests 10..43)", n)
		}
		if n := atLeast(m.op, ms33); n < 17 {
			t.Errorf("%d requests charged ≥ 33.6 ms, want ≥ 17 (requests 10..26)", n)
		}
	})
	t.Run("closed", func(t *testing.T) {
		cfg := stalled(t)
		m := newMeters()
		if err := runConn(0, cfg, time.Now(), 0, m); err != nil {
			t.Fatal(err)
		}
		if n := atLeast(m.op, ms33); n < 1 || n > uint64(cfg.depth) {
			t.Errorf("%d requests charged ≥ 33.6 ms, want 1..depth=%d", n, cfg.depth)
		}
	})
}

func TestRunConnErrors(t *testing.T) {
	for _, interval := range []time.Duration{0, 20 * time.Microsecond} {
		for _, tc := range []struct {
			name  string
			batch int
			set   func(*fakeServer)
			want  string
		}{
			{"err", 1, func(f *fakeServer) { f.errAt = 7 }, "reply 7 op 0: server: ERR injected"},
			{"cut", 1, func(f *fakeServer) { f.cutAt = 7 }, "reply 7 op 0: "},
			{"err-batch", 8, func(f *fakeServer) { f.errAt = 19 }, "reply 2 op 3: server: ERR injected"},
			{"cut-batch", 8, func(f *fakeServer) { f.cutAt = 19 }, "reply 2 op 3: "},
		} {
			t.Run(fmt.Sprintf("%s/interval=%s", tc.name, interval), func(t *testing.T) {
				f := startFake(t, tc.set)
				_, err := drive(loopCfg(f.addr, tc.batch, 0), interval)
				if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
					t.Fatalf("err = %v, want prefix %q", err, tc.want)
				}
			})
		}
	}
}

// startReal serves an RR-V structure of the given family, split over
// shards shards, on a loopback port.
func startReal(t *testing.T, family bench.Family, shards int) string {
	t.Helper()
	const slots = 2
	sharded, err := bench.BuildSharded(family, bench.VariantSpec{Name: "RR-V"}, slots, shards)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]serve.Backend, shards)
	for i := range backends {
		set := sharded.Shard(i)
		backends[i] = serve.Backend{Set: set, Pool: serve.NewPool(set, serve.PoolConfig{Slots: slots})}
	}
	srv := serve.NewServer(serve.ServerConfig{Shards: backends})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestRunEndToEnd drives a real server through every mode and checks what
// the report is made of: the mix the generators say was sent, and the
// monitor's live-node envelope (keys/2 resident after prefill, one
// sentinel per shard, never more than the key range, nothing deferred).
func TestRunEndToEnd(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, mode := range []struct {
			name            string
			rate            float64
			batch, scanfrac int
		}{
			{"closed", 0, 1, 10},
			{"open", 40_000, 1, 10},
			{"closed-batch", 0, 8, 0},
			{"open-batch", 40_000, 8, 0},
		} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, mode.name), func(t *testing.T) {
				cfg := &config{addr: startReal(t, bench.FamilySingly, shards), conns: 2, depth: 4, keys: 256, reads: 50, ops: 2001,
					rate: mode.rate, batch: mode.batch, scanfrac: mode.scanfrac, scanlen: 16, seed: 7}
				if err := cfg.validate(); err != nil {
					t.Fatal(err)
				}
				rep, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := map[byte]uint64{}
				for cid := 0; cid < cfg.conns; cid++ {
					g := newGen(cfg, cid)
					for i := 0; i < cfg.ops/cfg.batch; i++ {
						g.next()
						for j, op := range g.ops {
							tag := "GSD"[op.Kind]
							if g.scan[j] > 0 {
								tag = 'A'
							}
							want[tag]++
						}
					}
				}
				m := rep.m
				got := map[byte]uint64{'G': m.gets.Load(), 'S': m.sets.Load(), 'D': m.dels.Load(), 'A': m.scans.Load()}
				total := uint64(cfg.conns * cfg.ops)
				if want['G']+want['S']+want['D']+want['A'] != total || (want['A'] > 0) != (mode.scanfrac > 0) {
					t.Fatalf("generator mix %v does not sum to %d ops", want, total)
				}
				for tag, n := range want {
					if got[tag] != n {
						t.Errorf("tallied %d %c replies, generators sent %d", got[tag], tag, n)
					}
				}
				if m.hits.Load() == 0 || m.hits.Load() >= m.gets.Load() {
					t.Errorf("hits = %d of %d GETs on a half-full set", m.hits.Load(), m.gets.Load())
				}
				sentinels := uint64(shards)
				if rep.base.liveMin != cfg.keys/2+sentinels {
					t.Errorf("live after prefill = %d, want keys/2 + %d sentinels", rep.base.liveMin, sentinels)
				}
				if in := rep.info; in.liveMin < sentinels || in.liveMax > cfg.keys+sentinels || in.liveMin > in.liveMax || in.deferred != 0 {
					t.Errorf("live envelope [%d, %d] deferred %d outside [%d, %d] / 0",
						in.liveMin, in.liveMax, in.deferred, sentinels, cfg.keys+sentinels)
				}
				if in := rep.info; in.variant != "RR-V" || in.shards != shards || in.commits <= rep.base.commits {
					t.Errorf("INFO variant=%q shards=%d commits %d -> %d", in.variant, in.shards, rep.base.commits, in.commits)
				}
				var out strings.Builder
				rep.print(&out, cfg)
				if mix := fmt.Sprintf("mix: GET=%d ", want['G']); !strings.Contains(out.String(), mix) {
					t.Errorf("report lacks %q:\n%s", mix, out.String())
				}
			})
		}
	}
}

// TestPrefillShuffled prefills an external tree over the wire. Ascending
// inserts would build it as one 16 384-deep chain (half a minute of
// quadratic walking); the seed-shuffled order takes well under a second.
func TestPrefillShuffled(t *testing.T) {
	const keys = 32768
	addr := startReal(t, bench.FamilyExternalTree, 1)

	begin := time.Now()
	if err := prefill(addr, keys, 7); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(begin); d > 10*time.Second {
		t.Errorf("prefilling %d keys took %s; an ascending prefill takes ~30 s, a shuffled one < 1 s", keys, d)
	}
	var out strings.Builder
	if err := oneShot(&out, addr, "LEN;GET 1;GET 2;GET 32767"); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%-12s -> %d\n%-12s -> 1\n%-12s -> 0\n%-12s -> 1\n", "LEN", keys/2, "GET 1", "GET 2", "GET 32767")
	if out.String() != want {
		t.Errorf("after prefill:\n%swant:\n%s", out.String(), want)
	}
}

// TestPrefillFailsOnErrReply answers prefill's reply 3 with ERR: the
// prefill must fail on it, not count it as an insert.
func TestPrefillFailsOnErrReply(t *testing.T) {
	f := startFake(t, func(f *fakeServer) { f.errAt = 3 })
	err := prefill(f.addr, 64, 7)
	if err == nil || !strings.Contains(err.Error(), "server: ERR injected") {
		t.Fatalf("prefill = %v, want the ERR reply as its error", err)
	}
}
