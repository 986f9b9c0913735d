package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hohtx/internal/bench"
	"hohtx/internal/obs"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
)

// tracedConfig is the ServerConfig that arms request tracing: the server's
// own obs domain (cfg.Obs: serve histograms, slowlog, hot keys) behind a
// live obs HTTP endpoint (cfg.ObsAddr, which INFO then advertises as obs=).
func tracedConfig(t *testing.T, slots int) serve.ServerConfig {
	t.Helper()
	dom := obs.NewDomain(obs.DomainConfig{Name: "server", Threads: slots})
	reg := obs.NewRegistry()
	reg.Register(dom)
	bound, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatalf("obs.Serve: %v", err)
	}
	return serve.ServerConfig{Obs: dom, ObsAddr: bound.String()}
}

// observedShards builds RR-V lists that each carry a transaction-level obs
// domain, as `hohserver -obs` does: request spans are armed on those.
func observedShards(t *testing.T, shards, slots int) *serve.Sharded {
	t.Helper()
	sh, err := bench.BuildSharded(bench.FamilySingly, bench.VariantSpec{Name: "RR-V", Observe: true}, slots, shards)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return sh
}

// getJSON fetches a forensics endpoint and decodes it — the decode
// itself is the valid-JSON assertion.
func getJSON(t *testing.T, hostport, path string, v any) {
	t.Helper()
	resp, err := http.Get("http://" + hostport + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
}

// TestSlowlogCapturesWaitDominatedRequest is the acceptance path for the
// phase breakdown: with a single-slot pool whose only lease the test
// holds, a request must queue — and its slowlog entry must say so, with
// the wait phase dominating the breakdown.
func TestSlowlogCapturesWaitDominatedRequest(t *testing.T) {
	ts := startServer(t, observedShards(t, 1, 1), serve.PoolConfig{Slots: 1}, tracedConfig(t, 1))
	cl := dialClient(t, ts.addr)

	// Hold the only worker slot, then send a request that has to queue
	// behind us for its lease.
	slot, err := ts.pools[0].Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	const stall = 60 * time.Millisecond
	cl.bw.WriteString("SET 7\n")
	if err := cl.bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	time.Sleep(stall)
	ts.pools[0].Release(slot)
	line, err := cl.br.ReadString('\n')
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	if got := strings.TrimRight(line, "\n"); got != "1" {
		t.Fatalf("SET 7 -> %q, want 1", got)
	}

	var dumps []obs.SlowlogDump
	getJSON(t, ts.cfg.ObsAddr, "/slowlog", &dumps)
	if len(dumps) != 1 || len(dumps[0].Entries) == 0 {
		t.Fatalf("/slowlog = %+v, want one domain with entries", dumps)
	}
	var found *obs.SlowEntry
	for i := range dumps[0].Entries {
		e := &dumps[0].Entries[i]
		if e.Verb == "SET" && len(e.Keys) == 1 && e.Keys[0] == 7 {
			found = e
			break
		}
	}
	if found == nil {
		t.Fatalf("no SET 7 entry in %+v", dumps[0].Entries)
	}
	if found.WorstPhase != "wait" {
		t.Errorf("worst phase = %q, want wait (breakdown: %+v)", found.WorstPhase, *found)
	}
	if found.WaitNs < uint64(stall/2) {
		t.Errorf("wait phase = %s, want >= %s", time.Duration(found.WaitNs), stall/2)
	}
	if found.TotalNs < found.WaitNs {
		t.Errorf("total %d < wait %d: phases exceed the request", found.TotalNs, found.WaitNs)
	}

	// The same forensics over the wire: SLOWLOG streams SLOW lines with
	// the breakdown as key=value fields, terminated by END.
	cl.bw.WriteString("SLOWLOG 8\n")
	if err := cl.bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	sawWait := false
	for {
		line, err := cl.br.ReadString('\n')
		if err != nil {
			t.Fatalf("SLOWLOG read: %v", err)
		}
		l := strings.TrimRight(line, "\n")
		if l == "END" {
			break
		}
		if !strings.HasPrefix(l, "SLOW ") {
			t.Fatalf("SLOWLOG line %q, want SLOW …", l)
		}
		if strings.Contains(l, "verb=SET") && strings.Contains(l, "worst=wait") {
			sawWait = true
		}
	}
	if !sawWait {
		t.Error("SLOWLOG stream had no wait-dominated SET line")
	}
}

// pipeline round-trips requests on a raw client without touching
// testing.T — safe from worker goroutines.
func pipeline(cl *client, reqs []string) error {
	for _, r := range reqs {
		cl.bw.WriteString(r)
		cl.bw.WriteByte('\n')
	}
	if err := cl.bw.Flush(); err != nil {
		return err
	}
	for range reqs {
		line, err := cl.br.ReadString('\n')
		if err != nil {
			return err
		}
		if strings.HasPrefix(line, "ERR") {
			return fmt.Errorf("server: %s", strings.TrimRight(line, "\n"))
		}
	}
	return nil
}

// TestHotKeysAbortAttribution is the acceptance path for hot-key
// forensics: concurrent writers hammering one key must surface that key
// at the top of /hotkeys' cross-shard abort rollup — on one shard and on
// two.
func TestHotKeysAbortAttribution(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const (
				conns  = 4
				hotKey = 5
			)
			ts := startServer(t, observedShards(t, shards, 4), serve.PoolConfig{Slots: 4}, tracedConfig(t, 4))
			clients := make([]*client, conns)
			for c := range clients {
				clients[c] = dialClient(t, ts.addr)
			}

			// Churn in rounds until the contention shows up in the sketch:
			// every connection alternates SET/DEL on the hot key (write-write
			// conflicts on one word) with a few cold keys mixed in so topping
			// the ranking means something.
			deadline := time.Now().Add(10 * time.Second)
			var rollup obs.HotShard
			for {
				var wg sync.WaitGroup
				errs := make(chan error, conns)
				for c := 0; c < conns; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						reqs := make([]string, 0, 300)
						for i := 0; i < 140; i++ {
							reqs = append(reqs, fmt.Sprintf("SET %d", hotKey), fmt.Sprintf("DEL %d", hotKey))
							if i%20 == 0 {
								reqs = append(reqs, fmt.Sprintf("SET %d", 1000+c*10+i/20))
							}
						}
						errs <- pipeline(clients[c], reqs)
					}(c)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						t.Fatalf("churn: %v", err)
					}
				}

				var dumps []obs.HotKeysDump
				getJSON(t, ts.cfg.ObsAddr, "/hotkeys", &dumps)
				if len(dumps) != 1 {
					t.Fatalf("/hotkeys = %d domains, want 1", len(dumps))
				}
				if len(dumps[0].Shards) != shards {
					t.Fatalf("/hotkeys shards = %d, want %d", len(dumps[0].Shards), shards)
				}
				rollup = dumps[0].Rollup
				if len(rollup.ByAborts) > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("no aborts attributed after 10s of single-key write churn")
				}
			}

			if rollup.Shard != -1 {
				t.Errorf("rollup shard = %d, want -1", rollup.Shard)
			}
			if rollup.ByAborts[0].Key != hotKey {
				t.Errorf("top key by aborts = %d (count %d), want %d; rollup %+v",
					rollup.ByAborts[0].Key, rollup.ByAborts[0].Count, hotKey, rollup.ByAborts)
			}
			// Latency attribution runs even without aborts; the hot key saw
			// the overwhelming majority of requests, so it must be tracked.
			foundLat := false
			for _, it := range rollup.ByLatency {
				if it.Key == hotKey {
					foundLat = true
				}
			}
			if !foundLat {
				t.Errorf("hot key absent from latency rollup %+v", rollup.ByLatency)
			}

			// The slowlog endpoint must be live and valid JSON on every shard
			// count; after hundreds of traced requests it cannot be empty.
			var slow []obs.SlowlogDump
			getJSON(t, ts.cfg.ObsAddr, "/slowlog", &slow)
			if len(slow) != 1 || len(slow[0].Entries) == 0 {
				t.Errorf("/slowlog = %+v, want a populated dump", slow)
			}
		})
	}
}

// TestInfoAdvertisesObs: a traced server advertises its obs endpoint in
// INFO as obs=<addr> (the hohload auto-discovery hook); an untraced one
// stays silent.
func TestInfoAdvertisesObs(t *testing.T) {
	ts := startServer(t, observedShards(t, 1, 2), serve.PoolConfig{Slots: 2}, tracedConfig(t, 2))
	cl := dialClient(t, ts.addr)
	info := cl.roundTrip(t, "INFO")[0]
	if want := "obs=" + ts.cfg.ObsAddr; !strings.Contains(info, want) {
		t.Errorf("INFO %q missing %q", info, want)
	}

	addr := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{}).addr
	cl2 := dialClient(t, addr)
	if info := cl2.roundTrip(t, "INFO")[0]; strings.Contains(info, "obs=") {
		t.Errorf("untraced INFO %q advertises an obs endpoint", info)
	}
}

// TestSlowlogVerbErrors: SLOWLOG rejects malformed counts, and reports
// plainly when the server has no tracing to dump.
func TestSlowlogVerbErrors(t *testing.T) {
	addr := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{}).addr
	cl := dialClient(t, addr)
	if r := cl.roundTrip(t, "SLOWLOG 5")[0]; !strings.HasPrefix(r, "ERR") {
		t.Errorf("SLOWLOG on untraced server -> %q, want ERR", r)
	}

	ts := startServer(t, observedShards(t, 1, 2), serve.PoolConfig{Slots: 2}, tracedConfig(t, 2))
	cl2 := dialClient(t, ts.addr)
	if r := cl2.roundTrip(t, "SLOWLOG x")[0]; !strings.HasPrefix(r, "ERR") {
		t.Errorf("SLOWLOG x -> %q, want ERR", r)
	}
}

// newSpan returns a span armed for verb, running from now.
func newSpan(verb string) *obs.Span {
	sp := &obs.Span{}
	sp.Reset(verb, obs.Now())
	return sp
}

// TestAcquireSpanStampsWait: a queued lease stamps the span's Wait phase
// with the time spent behind other leaseholders; the uncontended fast
// path stamps nothing.
func TestAcquireSpanStampsWait(t *testing.T) {
	set := newSet(t, 1)
	p := serve.NewPool(set, serve.PoolConfig{Slots: 1})

	sp := newSpan("GET")
	h := p.Handle()
	if slot, err := h.AcquireSpan(context.Background(), sp); err != nil {
		t.Fatalf("fast-path AcquireSpan: %v", err)
	} else {
		defer p.Release(slot)
		if got := sp.Phase(obs.SpanWait); got != 0 {
			t.Errorf("uncontended acquire stamped wait=%d, want 0", got)
		}

		sp2 := newSpan("GET")
		const stall = 40 * time.Millisecond
		got := make(chan int, 1)
		go func() {
			h2 := p.Handle()
			s2, err := h2.AcquireSpan(context.Background(), sp2)
			if err != nil {
				s2 = -1
			}
			got <- s2
		}()
		time.Sleep(stall)
		p.Release(slot)
		s2 := <-got
		if s2 < 0 {
			t.Fatal("queued AcquireSpan failed")
		}
		slot = s2 // the deferred Release hands back the re-leased slot
		if w := sp2.Phase(obs.SpanWait); w < uint64(stall/2) {
			t.Errorf("queued acquire stamped wait=%s, want >= %s", time.Duration(w), stall/2)
		}
		sp2.Finish(obs.Now())
	}
	sp.Finish(obs.Now())
}

// TestStmStampsSpan drives the deterministic capacity cliff with a span
// armed: a batch over the simulated HTM capacity must abort with the
// capacity cause and fall back to serial, and the armed span must carry
// the whole story — attempt counts, the serial attempt, the cause tally,
// and nonzero attempt/serial phase time.
func TestStmStampsSpan(t *testing.T) {
	set, err := bench.Build(bench.FamilySingly, bench.VariantSpec{Name: "HTM", Capacity: 8, Observe: true}, 1)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	dom := set.(interface{ ObsDomain() *obs.Domain }).ObsDomain()
	p := serve.NewPool(set, serve.PoolConfig{Slots: 1})

	ops := make([]sets.Op, 32)
	for i := range ops {
		ops[i] = sets.Op{Kind: sets.OpInsert, Key: uint64(i + 1)}
	}
	sp := newSpan("MULTI")
	err = p.Do(context.Background(), func(tid int) {
		dom.SetSpan(tid, sp)
		defer dom.SetSpan(tid, nil)
		for i, ok := range set.Apply(tid, ops) {
			if !ok {
				t.Errorf("Apply op %d failed", i)
			}
		}
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	sp.Finish(obs.Now())

	total, serial := sp.Attempts()
	if total < 2 || serial < 1 {
		t.Errorf("attempts = %d (serial %d), want >= 2 with >= 1 serial (capacity cliff)", total, serial)
	}
	if sp.Phase(obs.SpanSerial) == 0 {
		t.Error("serial attempt left no serial phase time")
	}
	sawCapacity := false
	for _, c := range sp.Causes() {
		if c.Cause == "capacity" && c.Count > 0 {
			sawCapacity = true
		}
	}
	if !sawCapacity {
		t.Errorf("causes = %+v, want a capacity abort", sp.Causes())
	}
}

// slowEntry is one SLOW line: its fields, and the phase and total fields
// as numbers.
type slowEntry struct {
	line string
	f    map[string]string
	ns   map[string]uint64
}

// slowlog reads SLOWLOG n and checks that each entry's six phases sum to
// its total_ns exactly, a total that is not zero.
func (cl *client) slowlog(t *testing.T, n int) []slowEntry {
	t.Helper()
	cl.sendLines(t, fmt.Sprintf("SLOWLOG %d", n))
	var out []slowEntry
	for line := cl.readLine(t); line != "END"; line = cl.readLine(t) {
		e := slowEntry{line: line, f: map[string]string{}, ns: map[string]uint64{}}
		for _, kv := range strings.Fields(line)[1:] {
			k, v, _ := strings.Cut(kv, "=")
			e.f[k] = v
		}
		var sum uint64
		for _, name := range []string{"wait_ns", "lease_ns", "attempts_ns", "serial_ns", "reclaim_ns", "write_ns", "total_ns"} {
			ns, err := strconv.ParseUint(e.f[name], 10, 64)
			if err != nil {
				t.Fatalf("%s: field %s: %v", line, name, err)
			}
			e.ns[name] = ns
			if name != "total_ns" {
				sum += ns
			}
		}
		if total := e.ns["total_ns"]; sum != total || total == 0 {
			t.Errorf("phases sum to %d, total_ns is %d: %s", sum, total, line)
		}
		out = append(out, e)
	}
	return out
}

// TestPointSpanContract pins what a lone traced GET, SET or DEL records now
// that it reads the clock once, after its reply is rendered: no write phase
// of its own (the 2-byte render is in its lease remainder, and the six
// phases still sum to the total), and a service-time sample of total −
// wait. A pipelined pair runs as one pass under one BATCH span, which, like
// MULTI and ASCEND, renders many lines and keeps its write phase.
func TestPointSpanContract(t *testing.T) {
	ts := startServer(t, observedShards(t, 1, 1), serve.PoolConfig{Slots: 1}, tracedConfig(t, 1))
	cl := dialClient(t, ts.addr)

	// The one GET the histogram holds: its sample is its span's total − wait.
	cl.roundTrip(t, "SET 99")
	cl.roundTrip(t, "GET 99")
	get := ts.cfg.Obs.Hist("serve_get_ns", "ns").Snapshot()
	if get.Count != 1 {
		t.Fatalf("serve_get_ns holds %d samples, want 1", get.Count)
	}

	alone := []string{"SET 1", "SET 2"}
	for k := 1; k <= 6; k++ {
		alone = append(alone, fmt.Sprintf("GET %d", k))
	}
	for _, r := range alone {
		cl.roundTrip(t, r)
	}
	cl.roundTrip(t, "SET 4", "GET 4")
	cl.multi(t, "SET 3", "GET 3")
	if keys := cl.ascend(t, 1, 10); len(keys) != 5 {
		t.Fatalf("ASCEND 1 10 returned %v, want 5 keys", keys)
	}

	verbs := map[string]int{}
	for _, e := range cl.slowlog(t, 64) {
		verb, write := e.f["verb"], e.ns["write_ns"]
		verbs[verb]++
		switch verb {
		case "GET", "SET", "DEL":
			if write != 0 {
				t.Errorf("a point request has write_ns %d, want 0: %s", write, e.line)
			}
			if verb == "GET" && e.f["keys"] == "99" {
				if want := e.ns["total_ns"] - e.ns["wait_ns"]; get.Sum != want {
					t.Errorf("serve_get_ns sample = %d, want total − wait = %d: %s", get.Sum, want, e.line)
				}
			}
		case "BATCH":
			if e.f["keys"] != "4,4" {
				t.Errorf("the pipelined pair's span carries keys %s, want 4,4: %s", e.f["keys"], e.line)
			}
			fallthrough
		default:
			if write == 0 {
				t.Errorf("%s lost its write phase: %s", verb, e.line)
			}
		}
	}
	if want := map[string]int{"GET": 7, "SET": 3, "BATCH": 1, "MULTI": 1, "ASCEND": 1}; !reflect.DeepEqual(verbs, want) {
		t.Errorf("SLOWLOG verbs = %v, want %v", verbs, want)
	}
}

// TestSlowlogPhasesReconcile: every entry SLOWLOG returns accounts for its
// whole request — wait + lease + attempts + serial + reclaim + write equals
// total_ns to the nanosecond, whatever the verb: point ops, a MULTI frame,
// an ASCEND that crosses the 64-key chunk boundary (and, on two shards,
// merges both), and a request that spent its life queued for a slot. A
// request that reaches the server in two segments is not charged the gap
// between them. And forensics are published before replies are flushed: a
// client holding a reply finds that request in /hotkeys.
func TestSlowlogPhasesReconcile(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ts := startServer(t, observedShards(t, shards, 1), serve.PoolConfig{Slots: 1}, tracedConfig(t, 1))
			cl := dialClient(t, ts.addr)

			frame := []string{"MULTI 80"}
			for k := 1; k <= 80; k++ {
				frame = append(frame, fmt.Sprintf("SET %d", k))
			}
			cl.bw.WriteString(strings.Join(frame, "\n") + "\n")
			if err := cl.bw.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			for k := 1; k <= 80; k++ {
				if line, err := cl.br.ReadString('\n'); err != nil || line != "1\n" {
					t.Fatalf("MULTI reply %d = %q, %v", k, line, err)
				}
			}
			points := []string{"GET 3", "DEL 4", "GET 4", "SET 4", "SET 90", "GET 90", "DEL 90", "GET 81"}
			cl.roundTrip(t, points...)
			if got := cl.ascend(t, 1, 80); len(got) != 80 {
				t.Fatalf("ASCEND 1 80 returned %d keys, want 80", len(got))
			}

			// One request that queues: the test holds its shard's only slot.
			pool := ts.pools[serve.ShardOf(7, shards)]
			slot, err := pool.Acquire(context.Background())
			if err != nil {
				t.Fatalf("Acquire: %v", err)
			}
			cl.bw.WriteString("GET 7\n")
			if err := cl.bw.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			time.Sleep(30 * time.Millisecond)
			pool.Release(slot)
			if line, err := cl.br.ReadString('\n'); err != nil || line != "1\n" {
				t.Fatalf("queued GET 7 = %q, %v", line, err)
			}

			// Two requests that arrive in two segments each, a point op cut
			// mid-line (pipelined behind another, so the pair is one BATCH)
			// and a frame cut mid-body (right behind a lone GET): how long
			// the client took to send the rest is not theirs.
			const pause = 40 * time.Millisecond
			for _, seg := range []struct {
				head, tail string
				want       []string
			}{{"SET 5\nGE", "T 5\n", []string{"0", "1"}}, {"GET 5\nMULTI 2\nSET 200\n", "SET 201\n", []string{"1", "1", "1"}}} {
				cl.bw.WriteString(seg.head)
				if err := cl.bw.Flush(); err != nil {
					t.Fatalf("flush: %v", err)
				}
				time.Sleep(pause)
				cl.bw.WriteString(seg.tail)
				if err := cl.bw.Flush(); err != nil {
					t.Fatalf("flush: %v", err)
				}
				if got := cl.read(t, len(seg.want)); !reflect.DeepEqual(got, seg.want) {
					t.Fatalf("split requests %q answered %v, want %v", seg.head+seg.tail, got, seg.want)
				}
			}

			verbs := map[string]int{}
			sawWait := false
			for _, e := range cl.slowlog(t, 64) {
				f, line, total := e.f, e.line, e.ns["total_ns"]
				verbs[f["verb"]]++
				queued := f["verb"] == "GET" && f["keys"] == "7"
				sawWait = sawWait || (queued && f["worst"] == "wait")
				if !queued && total >= uint64(pause/2) {
					t.Errorf("a request was charged the client's pause between segments: %s", line)
				}
			}
			// Every request sent so far fits one window, so each is there:
			// the eight pipelined points and the split pair are one BATCH
			// each, the queued GET 7 and the GET 5 ahead of the split frame
			// are alone.
			if want := map[string]int{"MULTI": 2, "ASCEND": 1, "BATCH": 2, "GET": 2}; !reflect.DeepEqual(verbs, want) {
				t.Errorf("SLOWLOG verbs = %v, want %v", verbs, want)
			}
			if !sawWait {
				t.Error("no wait-dominated GET 7 entry")
			}

			// A new key always enters a space-saving sketch, so once the
			// reply is here the request must be too.
			cl.roundTrip(t, "SET 150")
			var dumps []obs.HotKeysDump
			getJSON(t, ts.cfg.ObsAddr, "/hotkeys", &dumps)
			found := false
			for _, it := range dumps[0].Rollup.ByLatency {
				found = found || it.Key == 150
			}
			if !found {
				t.Errorf("SET 150 answered but absent from /hotkeys: %+v", dumps[0].Rollup.ByLatency)
			}
		})
	}
}
