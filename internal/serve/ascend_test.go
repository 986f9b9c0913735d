package serve_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hohtx/internal/bench"
	"hohtx/internal/obs"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
	"hohtx/internal/tree"
)

// sendLines writes raw request lines in one flush (no reply bookkeeping —
// scans have variable-length replies, so roundTrip does not fit).
func (cl *client) sendLines(t *testing.T, reqs ...string) {
	t.Helper()
	for _, r := range reqs {
		cl.bw.WriteString(r)
		cl.bw.WriteByte('\n')
	}
	if err := cl.bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

// readLine reads one reply line.
func (cl *client) readLine(t *testing.T) string {
	t.Helper()
	line, err := cl.br.ReadString('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return strings.TrimRight(line, "\n")
}

// readScan consumes one ASCEND reply: OK lines until the terminator (END,
// or an ERR line — the protocol's alternate scan terminator).
func (cl *client) readScan(t *testing.T) (keys []uint64, term string) {
	t.Helper()
	for {
		line := cl.readLine(t)
		if line == "END" || strings.HasPrefix(line, "ERR") {
			return keys, line
		}
		rest, ok := strings.CutPrefix(line, "OK ")
		if !ok {
			t.Fatalf("unexpected scan line %q", line)
		}
		k, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			t.Fatalf("bad scan key in %q: %v", line, err)
		}
		keys = append(keys, k)
	}
}

// ascend runs one ASCEND request and requires a clean END terminator.
func (cl *client) ascend(t *testing.T, lo uint64, n int) []uint64 {
	t.Helper()
	cl.sendLines(t, fmt.Sprintf("ASCEND %d %d", lo, n))
	keys, term := cl.readScan(t)
	if term != "END" {
		t.Fatalf("ASCEND %d %d terminated by %q, want END", lo, n, term)
	}
	return keys
}

func keysEq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAscendWireSingleShard drives ASCEND end to end on a one-shard
// server: full scans, bounded scans, midpoint starts, and pipelining
// with point ops — each scan byte-identical to the quiescent snapshot
// range it covers.
func TestAscendWireSingleShard(t *testing.T) {
	ts := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{})
	set, addr := ts.sh.Shard(0), ts.addr
	cl := dialClient(t, addr)

	var setReqs []string
	for k := 3; k <= 300; k += 3 {
		setReqs = append(setReqs, fmt.Sprintf("SET %d", k))
	}
	cl.roundTrip(t, setReqs...)
	want := set.Snapshot() // quiescent: only this test talks to the server

	if got := cl.ascend(t, 1, 1000); !keysEq(got, want) {
		t.Fatalf("full scan = %v, want %v", got, want)
	}
	if got := cl.ascend(t, 100, 1000); !keysEq(got, want[33:]) {
		t.Fatalf("scan from 100 = %v, want %v", got, want[33:])
	}
	if got := cl.ascend(t, 1, 7); !keysEq(got, want[:7]) {
		t.Fatalf("bounded scan = %v, want %v", got, want[:7])
	}
	// Scans pipeline with point ops: replies come back in order.
	cl.sendLines(t, "SET 1", "ASCEND 1 2", "GET 1", "ASCEND 299 10", "DEL 1")
	if r := cl.readLine(t); r != "1" {
		t.Fatalf("pipelined SET -> %q", r)
	}
	if got, term := cl.readScan(t); term != "END" || !keysEq(got, []uint64{1, 3}) {
		t.Fatalf("pipelined scan -> %v %q", got, term)
	}
	if r := cl.readLine(t); r != "1" {
		t.Fatalf("pipelined GET -> %q", r)
	}
	if got, term := cl.readScan(t); term != "END" || !keysEq(got, []uint64{300}) {
		t.Fatalf("pipelined tail scan -> %v %q", got, term)
	}
	if r := cl.readLine(t); r != "1" {
		t.Fatalf("pipelined DEL -> %q", r)
	}
	// Malformed scans reject without dropping the connection.
	for _, req := range []string{"ASCEND", "ASCEND 1", "ASCEND 0 5", "ASCEND 1 0", "ASCEND x 5"} {
		cl.sendLines(t, req)
		if r := cl.readLine(t); !strings.HasPrefix(r, "ERR") {
			t.Fatalf("%q -> %q, want ERR", req, r)
		}
	}
	info := parseInfo(t, cl.roundTrip(t, "INFO")[0])
	if info["scan"] != "atomic-window" {
		t.Fatalf("INFO scan=%q, want atomic-window", info["scan"])
	}
}

// TestAscendWireSharded checks the cross-shard merge cursor: the streamed
// union of per-shard cursors must be byte-identical to the quiescent
// Sharded.Snapshot over the same range, on 2 and 3 shards.
func TestAscendWireSharded(t *testing.T) {
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ts := startServer(t, newSharded(t, shards, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{})
			sh, addr := ts.sh, ts.addr
			cl := dialClient(t, addr)
			var setReqs []string
			for k := 1; k <= 500; k += 2 {
				setReqs = append(setReqs, fmt.Sprintf("SET %d", k))
			}
			cl.roundTrip(t, setReqs...)
			want := sh.Snapshot()
			if got := cl.ascend(t, 1, 1000); !keysEq(got, want) {
				t.Fatalf("merged scan diverges from Snapshot: got %d keys, want %d", len(got), len(want))
			}
			if got := cl.ascend(t, 251, 1000); !keysEq(got, want[125:]) {
				t.Fatalf("merged scan from 251 = %v, want %v", got, want[125:])
			}
			// A bound under the chunk size exercises the capped pulls.
			if got := cl.ascend(t, 1, 13); !keysEq(got, want[:13]) {
				t.Fatalf("bounded merged scan = %v, want %v", got, want[:13])
			}
			info := parseInfo(t, cl.roundTrip(t, "INFO")[0])
			if info["scan"] != "merged" {
				t.Fatalf("INFO scan=%q, want merged", info["scan"])
			}
		})
	}
}

// TestAscendWireWeakConsistency runs wire scans against concurrent wire
// writers on 1- and 2-shard servers and asserts the contract: strictly
// ascending (hence exactly-once), every present-throughout key delivered,
// and nothing outside the live key space.
func TestAscendWireWeakConsistency(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var addr string
			if shards == 1 {
				addr = startServer(t, newSharded(t, 1, 4), serve.PoolConfig{Slots: 4}, serve.ServerConfig{}).addr
			} else {
				addr = startServer(t, newSharded(t, shards, 4), serve.PoolConfig{Slots: 4}, serve.ServerConfig{}).addr
			}
			scanner := dialClient(t, addr)
			var stableReqs []string
			for k := 1; k <= 99; k += 2 {
				stableReqs = append(stableReqs, fmt.Sprintf("SET %d", k))
			}
			scanner.roundTrip(t, stableReqs...)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c, err := net.Dial("tcp", addr)
					if err != nil {
						t.Errorf("writer dial: %v", err)
						return
					}
					defer c.Close()
					br, bw := bufio.NewReader(c), bufio.NewWriter(c)
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						k := (i*2+w*4)%100 + 100 // churn keys 100..199
						fmt.Fprintf(bw, "SET %d\nDEL %d\n", k, k)
						if bw.Flush() != nil {
							return
						}
						for j := 0; j < 2; j++ {
							if _, err := br.ReadString('\n'); err != nil {
								return
							}
						}
					}
				}(w)
			}
			for round := 0; round < 20; round++ {
				got := scanner.ascend(t, 1, 10000)
				last, seen := uint64(0), 0
				for _, k := range got {
					if k <= last {
						t.Fatalf("round %d: not strictly ascending at %d", round, k)
					}
					last = k
					switch {
					case k <= 99 && k%2 == 1:
						seen++
					case k >= 100 && k <= 199: // in-flight churn key: allowed
					default:
						t.Fatalf("round %d: impossible key %d", round, k)
					}
				}
				if seen != 50 {
					t.Fatalf("round %d: saw %d of 50 stable keys", round, seen)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestAscendWireLopsided is the merge's worst case for a pull sized by an
// even share: every key of the range lives on shard 0, so shard 1's cursor
// is done after one empty pull and shard 0's first pull — capped at one
// chunk of 64 — is under a third of an ASCEND 200. The refill path delivers
// the rest, each time re-navigating by key on a fresh lease, while writers
// churn other keys of the same shard inside the range. The contract is
// sets.Ascender's: strictly ascending, every present-throughout key, no
// impossible key — and exactly n keys, since more than n are always there.
func TestAscendWireLopsided(t *testing.T) {
	const shards, n = 2, 200
	addr := startServer(t, newSharded(t, shards, 4), serve.PoolConfig{Slots: 4}, serve.ServerConfig{}).addr
	scanner := dialClient(t, addr)
	var stable, churn []uint64
	stableSet, churnSet := map[uint64]bool{}, map[uint64]bool{}
	for k := uint64(1); len(churn) < 250; k++ {
		switch {
		case serve.ShardOf(k, shards) != 0:
		case len(stable) == len(churn):
			stable, stableSet[k] = append(stable, k), true
		default:
			churn, churnSet[k] = append(churn, k), true
		}
	}
	var reqs []string
	for _, k := range stable {
		reqs = append(reqs, fmt.Sprintf("SET %d", k))
	}
	scanner.roundTrip(t, reqs...)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Errorf("writer dial: %v", err)
				return
			}
			defer c.Close()
			br, bw := bufio.NewReader(c), bufio.NewWriter(c)
			for i := w; ; i += 2 {
				select {
				case <-stop:
					return
				default:
				}
				k := churn[i%len(churn)]
				fmt.Fprintf(bw, "SET %d\nDEL %d\n", k, k)
				if bw.Flush() != nil {
					return
				}
				for j := 0; j < 2; j++ {
					if _, err := br.ReadString('\n'); err != nil {
						return
					}
				}
			}
		}(w)
	}
	for round := 0; round < 20; round++ {
		got := scanner.ascend(t, 1, n)
		if len(got) != n {
			t.Fatalf("round %d: %d keys, want %d", round, len(got), n)
		}
		last, seen := uint64(0), 0
		for _, k := range got {
			if k <= last {
				t.Fatalf("round %d: not strictly ascending at %d", round, k)
			}
			last = k
			switch {
			case stableSet[k]:
				seen++
			case !churnSet[k]:
				t.Fatalf("round %d: impossible key %d", round, k)
			}
		}
		for _, k := range stable {
			if k <= last {
				seen--
			}
		}
		if seen != 0 {
			t.Fatalf("round %d: %d stable key(s) at or below the last key emitted (%d) are missing", round, -seen, last)
		}
	}
	close(stop)
	wg.Wait()
}

// TestAscendPulledPerEmitted reads the merge's waste off the server's own
// books: serve_ascend_pulled is the keys an ASCEND took from the shards'
// cursors, and every scan here emits its full 64. One shard pulls what it
// emits, exactly. Two shards pulled 2 keys per key emitted when each was
// asked for the whole request; asked for a share and a slack they stay
// under 1.35, refills included.
func TestAscendPulledPerEmitted(t *testing.T) {
	const scans, n = 200, 64
	for _, shards := range []int{1, 2} {
		ts := startServer(t, observedShards(t, shards, 2), serve.PoolConfig{Slots: 2}, tracedConfig(t, 2))
		cl := dialClient(t, ts.addr)
		var reqs []string
		for k := 1; k <= 2000; k++ {
			reqs = append(reqs, fmt.Sprintf("SET %d", k))
		}
		cl.roundTrip(t, reqs...)
		for i := 0; i < scans; i++ {
			if got := cl.ascend(t, uint64(1+i*9), n); len(got) != n {
				t.Fatalf("%d shard(s): ASCEND %d %d returned %d keys", shards, 1+i*9, n, len(got))
			}
		}
		h, ok := ts.cfg.Obs.Snapshot().Hist(obs.HistServeAscendPulled)
		if !ok || h.Count != scans {
			t.Fatalf("%d shard(s): %s = %+v, want %d scans recorded", shards, obs.HistServeAscendPulled, h, scans)
		}
		waste := float64(h.Sum) / (scans * n)
		if shards == 1 && h.Sum != scans*n || waste < 1 || waste > 1.35 {
			t.Fatalf("%d shard(s): %d keys pulled for %d emitted (%.3f each), want exactly 1 on one shard and <= 1.35 on two",
				shards, h.Sum, scans*n, waste)
		}
	}
}

// TestAscendWireUnsupported pins the never-panic contract: structures
// without a cursor (trees, the hash table) answer ERR scan unsupported,
// advertise scan=none, and keep the connection alive. A deferred list is
// not among them: it scans under every mode.
func TestAscendWireUnsupported(t *testing.T) {
	build := func(f bench.Family, name string) sets.Set {
		s, err := bench.Build(f, bench.VariantSpec{Name: name}, 2)
		if err != nil {
			t.Fatalf("build %s/%s: %v", f, name, err)
		}
		return s
	}
	for _, tc := range []struct {
		label string
		set   sets.Set
		scan  []string // ASCEND 1 10's reply lines
		info  string   // INFO's scan=
	}{
		{"tmhp-list", build(bench.FamilySingly, "TMHP"), []string{"OK 10", "OK 20", "END"}, "atomic-window"},
		{"rr-itree", build(bench.FamilyInternalTree, "RR-V"), []string{"ERR scan unsupported"}, "none"},
		{"rr-hash", build(bench.Family("hash"), "RR-V"), []string{"ERR scan unsupported"}, "none"},
	} {
		t.Run(tc.label, func(t *testing.T) {
			addr := startServer(t, serve.NewSharded([]sets.Set{tc.set}), serve.PoolConfig{Slots: 2}, serve.ServerConfig{}).addr
			cl := dialClient(t, addr)
			cl.roundTrip(t, "SET 10", "SET 20")
			cl.sendLines(t, "ASCEND 1 10")
			for _, want := range tc.scan {
				if r := cl.readLine(t); r != want {
					t.Fatalf("ASCEND -> %q, want %q", r, want)
				}
			}
			// The connection survived and still serves point ops.
			if r := cl.roundTrip(t, "GET 10")[0]; r != "1" {
				t.Fatalf("GET after the scan -> %q, want 1", r)
			}
			info := parseInfo(t, cl.roundTrip(t, "INFO")[0])
			if info["scan"] != tc.info {
				t.Fatalf("INFO scan=%q, want %s", info["scan"], tc.info)
			}
		})
	}
}

// TestReadReplyAgainstServer renders a script with the client half of the
// codec and reads a real server's replies back through ReadReply: point
// bits, a MULTI frame's replies, a scan's keys through END, and ERR lines
// (a key out of range, and a scan on a tree) as ErrReply naming the line.
func TestReadReplyAgainstServer(t *testing.T) {
	point := func(kind sets.OpKind, key uint64) sets.Op { return sets.Op{Kind: kind, Key: key} }
	script := []sets.Op{point(sets.OpInsert, 10), point(sets.OpInsert, 20), point(sets.OpInsert, 10),
		point(sets.OpLookup, 10), point(sets.OpLookup, 30), point(sets.OpRemove, 20), point(sets.OpLookup, 0),
		point(sets.OpInsert, 5), point(sets.OpLookup, 5)}
	var req []byte
	for i, op := range script {
		if i == len(script)-2 {
			req = serve.AppendMulti(req, 2)
		}
		req = serve.AppendRequest(req, op, 0)
	}
	req = serve.AppendRequest(req, point(sets.OpLookup, 1), 10)
	points := []string{"true", "true", "false", "true", "false", "true",
		fmt.Sprintf("server: ERR key 0 out of range [1, %d]", uint64(tree.MaxKey)), "true", "true"}
	for _, tc := range []struct {
		family bench.Family
		scan   string
	}{
		{bench.FamilySingly, "[5 10]"},
		{bench.FamilyInternalTree, "server: ERR scan unsupported"},
	} {
		t.Run(string(tc.family), func(t *testing.T) {
			set, err := bench.Build(tc.family, bench.VariantSpec{Name: "RR-V"}, 2)
			if err != nil {
				t.Fatal(err)
			}
			cl := dialClient(t, startServer(t, serve.NewSharded([]sets.Set{set}), serve.PoolConfig{Slots: 2}, serve.ServerConfig{}).addr)
			if _, err := cl.c.Write(req); err != nil {
				t.Fatal(err)
			}
			sc := serve.NewLineScanner(cl.br)
			for i, want := range append(points, tc.scan) {
				var keys []uint64
				hit, err := serve.ReadReply(sc, i == len(points), func(k uint64) { keys = append(keys, k) })
				got := fmt.Sprint(hit)
				switch {
				case err != nil && !errors.Is(err, serve.ErrReply):
					t.Fatalf("reply %d: %v", i, err)
				case err != nil:
					got = err.Error()
				case i == len(points):
					got = fmt.Sprint(keys)
				}
				if got != want {
					t.Errorf("reply %d = %s, want %s", i, got, want)
				}
			}
		})
	}
}

// TestServerSaturationKeepsConnection pins the shedding contract from the
// client's side: with the only slot leased out-of-band and the wait queue
// full, GET / MULTI / ASCEND / pipelined requests are answered with
// ERR lines — and the SAME connection keeps working once the pool frees
// up. Before this fix the server dropped the whole pipelined connection.
func TestServerSaturationKeepsConnection(t *testing.T) {
	ts := startServer(t, newSharded(t, 1, 1), serve.PoolConfig{Slots: 1, MaxWaiters: 1}, serve.ServerConfig{})
	pool := ts.pools[0]
	cl := dialClient(t, ts.addr)
	if r := cl.roundTrip(t, "SET 7")[0]; r != "1" {
		t.Fatalf("warm-up SET -> %q", r)
	}

	saturate := func() (release func()) { return saturatePool(t, pool) }

	// Plain verb: the request is shed, the connection is not.
	release := saturate()
	cl.sendLines(t, "GET 7")
	if r := cl.readLine(t); !strings.HasPrefix(r, "ERR") {
		t.Fatalf("saturated GET -> %q, want ERR", r)
	}
	release()
	if r := cl.roundTrip(t, "GET 7")[0]; r != "1" {
		t.Fatalf("GET after shed -> %q, want 1 on the same connection", r)
	}

	// Pipelined burst: every un-executed op gets its own ERR reply.
	release = saturate()
	cl.sendLines(t, "GET 7", "GET 7", "GET 7")
	for i := 0; i < 3; i++ {
		if r := cl.readLine(t); !strings.HasPrefix(r, "ERR") {
			t.Fatalf("saturated burst reply %d -> %q, want ERR", i, r)
		}
	}
	release()

	// MULTI frame: one ERR line, no body replies, connection intact.
	release = saturate()
	cl.sendLines(t, "MULTI 2", "GET 7", "GET 7")
	if r := cl.readLine(t); !strings.HasPrefix(r, "ERR multi:") {
		t.Fatalf("saturated MULTI -> %q, want ERR multi:", r)
	}
	release()

	// ASCEND: the ERR line is the scan's terminator, not the connection's.
	release = saturate()
	cl.sendLines(t, "ASCEND 1 10")
	if _, term := cl.readScan(t); !strings.HasPrefix(term, "ERR") {
		t.Fatalf("saturated ASCEND terminated by %q, want ERR", term)
	}
	release()

	if got := cl.ascend(t, 1, 10); !keysEq(got, []uint64{7}) {
		t.Fatalf("post-shed scan = %v, want [7]", got)
	}
	if r := cl.roundTrip(t, "GET 7")[0]; r != "1" {
		t.Fatalf("final GET -> %q: connection should have survived everything", r)
	}
}

// saturatePool leases pool's only slot out of band and fills its one-place
// wait queue, so that any further Acquire is refused with ErrSaturated
// until release.
func saturatePool(t *testing.T, pool *serve.Pool) (release func()) {
	t.Helper()
	slot, err := pool.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		s, err := pool.Acquire(context.Background())
		if err == nil {
			pool.Release(s)
		}
	}()
	for i := 0; pool.Stats().Waiting < 1; i++ {
		if i > 5000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		pool.Release(slot)
		<-waiterDone
	}
}

// TestServerMaxKeyDefault pins the default key bound to the exported
// tree.MaxKey constant (the hardcoded copy used to be able to drift).
func TestServerMaxKeyDefault(t *testing.T) {
	if tree.MaxKey != ^uint64(0)-3 {
		t.Fatalf("tree.MaxKey = %d, want %d", uint64(tree.MaxKey), ^uint64(0)-3)
	}
	addr := startServer(t, newSharded(t, 1, 2), serve.PoolConfig{Slots: 2}, serve.ServerConfig{}).addr
	cl := dialClient(t, addr)
	if r := cl.roundTrip(t, fmt.Sprintf("GET %d", uint64(tree.MaxKey)))[0]; r != "0" {
		t.Fatalf("GET tree.MaxKey -> %q, want 0 (in range)", r)
	}
	if r := cl.roundTrip(t, fmt.Sprintf("GET %d", uint64(tree.MaxKey)+1))[0]; !strings.HasPrefix(r, "ERR key") {
		t.Fatalf("GET tree.MaxKey+1 -> %q, want out-of-range ERR", r)
	}
}
