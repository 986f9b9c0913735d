package serve_test

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"net"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"hohtx/internal/bench"
	"hohtx/internal/obs"
	"hohtx/internal/serve"
	"hohtx/internal/sets"
)

// The wire contract, pinned from outside the process. wireModel is a
// sequential model of the protocol — a sorted key set plus the server's
// three limits — that renders, for every request, the exact bytes the
// server owes. The golden transcript replays one script that touches every
// verb and every rejection through it; the differential replays random
// scripts against a twin Sharded instance. Neither test knows how the
// server is built, so both run unchanged across a rewrite of it.

const (
	goldenMaxKey   = 1000
	goldenMaxBatch = 8
	goldenSlots    = 2
)

// pipelineCfg is one cell of the configuration cross the transcript
// replays over.
type pipelineCfg struct {
	variant   string
	shards    int
	autoBatch int
	traced    bool
	family    bench.Family // zero: the singly linked list
}

func (c pipelineCfg) String() string {
	s := fmt.Sprintf("%s/shards=%d/autobatch=%d/obs=%v", c.variant, c.shards, c.autoBatch, c.traced)
	if c.family != "" {
		s = string(c.family) + "/" + s
	}
	return s
}

// pipelineServer starts the cell's server over fresh shards and returns the
// aggregate view of those shards beside its address.
func pipelineServer(t testing.TB, cfg pipelineCfg, maxKey uint64, maxBatch int) (*serve.Sharded, string) {
	t.Helper()
	sh, err := bench.BuildSharded(cmp.Or(cfg.family, bench.FamilySingly),
		bench.VariantSpec{Name: cfg.variant, Observe: cfg.traced}, goldenSlots, cfg.shards)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sc := serve.ServerConfig{MaxKey: maxKey, MaxBatch: maxBatch, AutoBatch: cfg.autoBatch}
	if cfg.traced {
		sc.Obs = obs.NewDomain(obs.DomainConfig{Name: "server", Threads: goldenSlots})
		sc.ObsAddr = "127.0.0.1:1"
	}
	return sh, startServer(t, sh, serve.PoolConfig{Slots: goldenSlots}, sc).addr
}

// wireModel answers requests the way the protocol grammar says a server
// must, one request at a time.
type wireModel struct {
	cfg      pipelineCfg
	maxKey   uint64
	maxBatch int
	baseline uint64 // live nodes of the empty shards (sentinels)
	name     string // what INFO calls the variant: shard 0's Name
	scans    bool   // the structure offers the reservation cursor
	keys     map[uint64]bool
}

func (m *wireModel) keyErr(arg string) (uint64, string) {
	if arg == "" {
		return 0, "missing key"
	}
	var k uint64
	for _, c := range arg {
		if c < '0' || c > '9' || k > (^uint64(0)-uint64(c-'0'))/10 {
			return 0, fmt.Sprintf("bad key %q", arg)
		}
		k = k*10 + uint64(c-'0')
	}
	if k < 1 || k > m.maxKey {
		return 0, fmt.Sprintf("key %d out of range [1, %d]", k, m.maxKey)
	}
	return k, ""
}

// count parses a wire count: a decimal with an optional sign, as strconv
// reads it (leading zeros included), of at most 1<<62.
func count(arg string) (int, bool) {
	n, err := strconv.ParseInt(arg, 10, 64)
	return int(n), err == nil && n <= 1<<62
}

// op applies one GET/SET/DEL line, or names why it is not one.
func (m *wireModel) op(line string, apply bool) (reply, diag string) {
	verb, arg, _ := strings.Cut(line, " ")
	if verb != "GET" && verb != "SET" && verb != "DEL" {
		return "", "not a key op"
	}
	k, diag := m.keyErr(arg)
	if diag != "" || !apply {
		return "", diag
	}
	was := m.keys[k]
	switch verb {
	case "GET":
		return bit(was), ""
	case "SET":
		m.keys[k] = true
		return bit(!was), ""
	}
	delete(m.keys, k)
	return bit(was), ""
}

func bit(b bool) string {
	if b {
		return "1\n"
	}
	return "0\n"
}

func (m *wireModel) sorted() []uint64 {
	out := make([]uint64, 0, len(m.keys))
	for k := range m.keys {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// request is one protocol request: a head line and, for MULTI, the body
// lines the client sends after it whatever the server will say about them.
type request struct {
	head string
	body []string
}

// closes marks a reply after which the server drops the connection.
const closes = "\x00"

// reply renders the bytes owed for one request (volatile values masked as
// '#', see mask).
func (m *wireModel) reply(r request) string {
	verb, args, hasArgs := strings.Cut(r.head, " ")
	switch verb {
	case "GET", "SET", "DEL":
		out, diag := m.op(r.head, true)
		if diag != "" {
			return "ERR " + diag + "\n"
		}
		return out
	case "LEN":
		return fmt.Sprintf("%d\n", len(m.keys))
	case "MULTI":
		n, ok := count(args)
		if !ok || n < 1 {
			return fmt.Sprintf("ERR multi: bad count %q\n", args)
		}
		if n > m.maxBatch {
			out := fmt.Sprintf("ERR multi: batch of %d exceeds max %d\n", n, m.maxBatch)
			if n > m.maxBatch*16 {
				out += closes
			}
			return out
		}
		for i, l := range r.body {
			if _, diag := m.op(l, false); diag != "" {
				return fmt.Sprintf("ERR multi: op %d: %s\n", i, diag)
			}
		}
		var out strings.Builder
		for _, l := range r.body {
			rep, _ := m.op(l, true)
			out.WriteString(rep)
		}
		return out.String()
	case "ASCEND":
		loArg, nArg, two := strings.Cut(args, " ")
		if !hasArgs || !two {
			return "ERR ascend: want ASCEND <lo> <n>\n"
		}
		lo, diag := m.keyErr(loArg)
		if diag != "" {
			return "ERR ascend: " + diag + "\n"
		}
		n, ok := count(nArg)
		if !ok || n < 1 {
			return fmt.Sprintf("ERR ascend: bad count %q\n", nArg)
		}
		if !m.scans {
			return "ERR scan unsupported\n"
		}
		var out strings.Builder
		for _, k := range m.sorted() {
			if k >= lo && n > 0 {
				fmt.Fprintf(&out, "OK %d\n", k)
				n--
			}
		}
		return out.String() + "END\n"
	case "SLOWLOG":
		n, ok := count(args)
		if !ok || n < 1 {
			return fmt.Sprintf("ERR slowlog: bad count %q\n", args)
		}
		if !m.cfg.traced {
			return "ERR slowlog unavailable (server has no obs domain)\n"
		}
		// Every earlier request of the script left a span, so the log
		// holds at least n entries for the small n the script asks for.
		return strings.Repeat("SLOW rank=# verb=# total_ns=# worst=# wait_ns=# lease_ns=# attempts_ns=# serial_ns=# reclaim_ns=# write_ns=# attempts=# serial_txs=# keys=# key_n=# shards=# owners=#\n", n) + "END\n"
	case "INFO":
		multi, scan := "atomic", "none"
		if m.cfg.shards > 1 {
			multi = "per-shard"
		}
		if m.scans {
			scan = "atomic-window"
			if m.cfg.shards > 1 {
				scan = "merged"
			}
		}
		live := "#" // deferred nodes are live too, and only a precise scheme has none
		if m.precise() {
			live = fmt.Sprint(m.baseline + uint64(len(m.keys)))
		}
		out := fmt.Sprintf("variant=%s shards=%d slots=%d keys=%d live=%s deferred=# conns=1 maxbatch=%d autobatch=%d multi=%s scan=%s commits=# ro_commits=# rw_commits=# serial=# aborts=#",
			m.name, m.cfg.shards, goldenSlots, len(m.keys), live,
			m.maxBatch, m.cfg.autoBatch, multi, scan)
		if m.cfg.traced {
			out += " obs=#"
		}
		return out + "\n"
	case "":
		return "ERR empty command\n"
	}
	return "ERR unknown command\n"
}

func (m *wireModel) precise() bool { return m.cfg.variant == "RR-V" }

var (
	slowValue = regexp.MustCompile(`=[^ \n]+`)
	infoValue = regexp.MustCompile(`\b(deferred|commits|ro_commits|rw_commits|serial|aborts|obs)=[^ \n]+`)
	liveValue = regexp.MustCompile(`\blive=[^ \n]+`)
)

// mask blanks the values no sequential model can predict: timings and
// counters in SLOW lines, transaction counters in INFO (and live= under a
// deferred scheme).
func mask(line string, precise bool) string {
	switch {
	case strings.HasPrefix(line, "SLOW "):
		return slowValue.ReplaceAllString(line, "=#")
	case strings.HasPrefix(line, "variant="):
		line = infoValue.ReplaceAllString(line, "$1=#")
		if !precise {
			line = liveValue.ReplaceAllString(line, "live=#")
		}
	}
	return line
}

// goldenScript is the transcript: every verb, every rejection, a MULTI
// frame, scans that cross the 64-key chunk boundary on one shard and on
// two, and pipelined point-op runs for the auto-batcher to coalesce. The
// last request is the one rejection that drops the connection.
func goldenScript() []request {
	var s []request
	add := func(heads ...string) {
		for _, h := range heads {
			s = append(s, request{head: h})
		}
	}
	multi := func(head string, body ...string) { s = append(s, request{head: head, body: body}) }

	add("", " GET 5", "FROB 1", "get 5", "GETX 5",
		"GET", "SET", "DEL ", "GET zero", "DEL -1", "SET +1", "GET 5 6", "GET 0x10",
		"SET 0", "GET 1001", "DEL 18446744073709551615", "GET 18446744073709551616",
		"SET 5", "SET 5", "GET 5", "GET 0005", "LEN", "DEL 5", "DEL 5", "GET 5", "LEN",
		"SET 1000", "GET 1000", "DEL 1000")
	for k := 3; k <= 600; k += 3 { // 200 keys: ~100 per shard of two
		add(fmt.Sprintf("SET %d", k))
	}
	add("LEN", "INFO")
	for k := 1; k <= 40; k++ { // a pipelined mixed run, same keys revisited
		add(fmt.Sprintf("SET %d", 700+k%7), fmt.Sprintf("GET %d", 3*k), fmt.Sprintf("DEL %d", 700+k%5))
	}
	add("LEN")

	multi("MULTI 5", "SET 10", "SET 11", "GET 10", "SET 10", "DEL 12")
	multi("MULTI 5", "DEL 10", "GET 10", "SET 10", "DEL 10", "GET 10")
	multi("MULTI 8", "SET 801", "SET 802", "SET 803", "SET 804", "GET 3", "GET 6", "DEL 801", "DEL 802")
	multi("MULTI 1", "DEL 11")
	multi("MULTI +2", "DEL 803", "DEL 804")
	add("LEN", "MULTI", "MULTI x", "MULTI 0", "MULTI -3", "MULTI 2 3")
	multi("MULTI 9", "SET 1", "SET 2", "SET 3", "SET 4", "SET 5", "SET 6", "SET 7", "SET 8", "SET 9")
	multi("MULTI 2", "i", "GET 1")
	multi("MULTI 3", "SET 1", "FROB 2", "GET 3")
	multi("MULTI 3", "SET 1", "GET 2", "LEN")
	multi("MULTI 2", "SET zero", "GET 1")
	multi("MULTI 2", "GET 1", "SET")
	multi("MULTI 1", "GET 1001")
	multi("MULTI 2", "MULTI 2", "GET 1")
	add("GET 1", "GET 2", "LEN")

	add("ASCEND", "ASCEND 1", "ASCEND  5", "ASCEND zero 5", "ASCEND 0 5", "ASCEND 1001 5",
		"ASCEND 1 x", "ASCEND 1 0", "ASCEND 1 -4", "ASCEND 1 5 extra", "ASCEND 1 ",
		"ASCEND 1 1000", "ASCEND 1 64", "ASCEND 1 65", "ASCEND 100 130", "ASCEND 1 1",
		"ASCEND 598 10", "ASCEND 1000 10", "SET 1", "ASCEND 1 2", "DEL 1", "ASCEND 1 +2")
	add("SLOWLOG", "SLOWLOG x", "SLOWLOG 0", "SLOWLOG -1", "SLOWLOG 4", "SLOWLOG 1")
	add("INFO", "LEN")
	add(fmt.Sprintf("MULTI %d", goldenMaxBatch*16+1))
	return s
}

func (r request) wire() string {
	return r.head + "\n" + strings.Join(append(r.body, ""), "\n")
}

// readReply reads want's worth of lines (or to EOF when the reply closes
// the connection) and returns them masked.
func readReply(t *testing.T, br *bufio.Reader, want string, precise bool) string {
	t.Helper()
	var got strings.Builder
	for n := strings.Count(want, "\n"); n > 0; n-- {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v (have %q)", err, got.String())
		}
		got.WriteString(mask(line, precise))
	}
	if strings.HasSuffix(want, closes) {
		rest, err := io.ReadAll(br)
		if err != nil || len(rest) != 0 {
			t.Fatalf("after a closing reply: read %q, %v; want EOF", rest, err)
		}
		got.WriteString(closes)
	}
	return got.String()
}

// TestGoldenTranscript replays the script over every configuration cell,
// once fully pipelined (one write, so bursts and auto-batches form) and
// once in lock step, and wants every reply byte-identical to the model's.
func TestGoldenTranscript(t *testing.T) {
	script := goldenScript()
	var cells []pipelineCfg
	for _, shards := range []int{1, 2} {
		for _, ab := range []int{0, 8} {
			for _, traced := range []bool{false, true} {
				cells = append(cells, pipelineCfg{variant: "RR-V", shards: shards, autoBatch: ab, traced: traced})
			}
		}
	}
	// One variant that cannot scan: same script, ERR scan unsupported.
	cells = append(cells, pipelineCfg{variant: "TMHP", shards: 1}, pipelineCfg{variant: "TMHP", shards: 2, autoBatch: 8, traced: true})
	// And a family no line of the serving stack or the harness names: hash is
	// one row of the family table (it has no order, so it cannot scan either).
	cells = append(cells, pipelineCfg{variant: "RR-V", shards: 1, family: "hash"}, pipelineCfg{variant: "RR-V", shards: 2, autoBatch: 8, traced: true, family: "hash"})
	for _, cfg := range cells {
		for _, pipelined := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/pipelined=%v", cfg, pipelined), func(t *testing.T) {
				sh, addr := pipelineServer(t, cfg, goldenMaxKey, goldenMaxBatch)
				m := &wireModel{cfg: cfg, maxKey: goldenMaxKey, maxBatch: goldenMaxBatch,
					baseline: sh.LiveNodes(), name: sh.Shard(0).Name(), scans: sh.CanAscend(),
					keys: map[uint64]bool{}}
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				defer nc.Close()
				br := bufio.NewReader(nc)
				if pipelined {
					var all strings.Builder
					for _, r := range script {
						all.WriteString(r.wire())
					}
					go io.WriteString(nc, all.String())
				}
				for i, r := range script {
					if !pipelined {
						if _, err := io.WriteString(nc, r.wire()); err != nil {
							t.Fatalf("write: %v", err)
						}
					}
					want := m.reply(r)
					if got := readReply(t, br, want, m.precise()); got != want {
						t.Fatalf("request %d %q:\n got %q\nwant %q", i, r.head, got, want)
					}
				}
				if got := sh.Snapshot(); !sets.KeysEqual(got, m.sorted()) {
					t.Fatalf("final keys: %d on the server, %d in the model", len(got), len(m.keys))
				}
			})
		}
	}
}

// TestGoldenUnterminatedFinalRequest pins the framing edge the transcript
// cannot reach through a closing reply: a last line without its newline is
// still served before the connection drops.
func TestGoldenUnterminatedFinalRequest(t *testing.T) {
	for _, ab := range []int{0, 8} {
		_, addr := pipelineServer(t, pipelineCfg{variant: "RR-V", shards: 2, autoBatch: ab}, goldenMaxKey, goldenMaxBatch)
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		io.WriteString(nc, "SET 9\nGET 9\nLEN")
		nc.(*net.TCPConn).CloseWrite()
		got, err := io.ReadAll(nc)
		nc.Close()
		if err != nil || string(got) != "1\n1\n1\n" {
			t.Fatalf("autobatch=%d: got %q, %v; want 1 1 1", ab, got, err)
		}
	}
}

// FuzzServeMulti sends one whole MULTI frame per input — "MULTI " and the
// count argument, then body lines cut from the second argument — through
// serveMulti on one loopback server, and holds the reply and a LEN after it
// (the frame left the connection in step) to wireModel (ROADMAP 1(c)). The
// body is as many lines as a count the server accepts or drains says,
// truncated or padded with "GET 1", and empty where the count is malformed
// or drops the connection. Each input starts from an empty set, so a
// crasher replays alone. The seeds are the golden transcript's frames.
func FuzzServeMulti(f *testing.F) {
	for _, r := range goldenScript() {
		if arg, ok := strings.CutPrefix(r.head, "MULTI"); ok {
			f.Add(strings.TrimPrefix(arg, " "), strings.Join(r.body, "\n"))
		}
	}
	f.Add("0000000088", "SET 1") // ten digits: a model that capped counts at nine hung here
	cfg := pipelineCfg{variant: "RR-V", shards: 2}
	sh, addr := pipelineServer(f, cfg, goldenMaxKey, goldenMaxBatch)
	m := &wireModel{cfg: cfg, maxKey: goldenMaxKey, maxBatch: goldenMaxBatch,
		baseline: sh.LiveNodes(), name: sh.Shard(0).Name(), scans: sh.CanAscend(),
		keys: map[uint64]bool{}}
	f.Fuzz(func(t *testing.T, arg, body string) {
		if strings.Contains(arg, "\n") {
			t.Skip("the count argument is one line")
		}
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer nc.Close()
		_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(nc)
		// roundTrip sends r and checks the reply; it reports whether the
		// reply dropped the connection.
		roundTrip := func(r request) (closed bool) {
			t.Helper()
			wire := r.wire()
			if _, err := io.WriteString(nc, wire); err != nil {
				t.Fatalf("write: %v", err)
			}
			// The server frames lines as ReadString + TrimRight "\r\n" does.
			r.head = strings.TrimRight(r.head, "\r")
			for i := range r.body {
				r.body[i] = strings.TrimRight(r.body[i], "\r")
			}
			want := m.reply(r)
			if got := readReply(t, br, want, true); got != want {
				t.Fatalf("%q:\n got %q\nwant %q", wire, got, want)
			}
			return strings.HasSuffix(want, closes)
		}
		for _, k := range m.sorted() {
			roundTrip(request{head: fmt.Sprintf("DEL %d", k)})
		}

		r := request{head: "MULTI " + arg}
		if n, ok := count(strings.TrimRight(arg, "\r")); ok && n >= 1 && n <= goldenMaxBatch*16 {
			r.body = strings.Split(body, "\n")
			for len(r.body) < n {
				r.body = append(r.body, "GET 1")
			}
			r.body = r.body[:n]
		}
		if !roundTrip(r) {
			roundTrip(request{head: "LEN"})
		}
	})
}

// TestWireMatchesShardedTwin is the differential: random op runs (plain
// verbs, which the auto-batcher may coalesce, and MULTI frames) and random
// scans through the wire must answer exactly what Sharded.Apply and
// Sharded.Ascend answer on a twin instance fed the same stream.
func TestWireMatchesShardedTwin(t *testing.T) {
	const maxKey, rounds = 400, 60
	for _, shards := range []int{1, 2, 3} {
		for _, ab := range []int{0, 8} {
			cfg := pipelineCfg{variant: "RR-V", shards: shards, autoBatch: ab}
			t.Run(cfg.String(), func(t *testing.T) {
				served, addr := pipelineServer(t, cfg, maxKey, 64)
				twin := newSharded(t, shards, 1)
				twin.Register(0)
				rng := rand.New(rand.NewSource(int64(100*shards + ab)))
				nc, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				defer nc.Close()
				br := bufio.NewReader(nc)
				for round := 0; round < rounds; round++ {
					ops := make([]sets.Op, 1+rng.Intn(48))
					var req strings.Builder
					framed := rng.Intn(2) == 0
					if framed {
						fmt.Fprintf(&req, "MULTI %d\n", len(ops))
					}
					for i := range ops {
						ops[i] = sets.Op{Kind: sets.OpKind(rng.Intn(3)), Key: 1 + uint64(rng.Intn(maxKey))}
						fmt.Fprintf(&req, "%s %d\n", [...]string{"GET", "SET", "DEL"}[ops[i].Kind], ops[i].Key)
					}
					lo, n := 1+uint64(rng.Intn(maxKey)), 1+rng.Intn(200)
					fmt.Fprintf(&req, "ASCEND %d %d\nLEN\n", lo, n)
					if _, err := io.WriteString(nc, req.String()); err != nil {
						t.Fatalf("write: %v", err)
					}

					var want strings.Builder
					for _, r := range twin.Apply(0, ops) {
						want.WriteString(bit(r))
					}
					if err := twin.Ascend(0, lo, func(k uint64) bool {
						fmt.Fprintf(&want, "OK %d\n", k)
						n--
						return n > 0
					}); err != nil {
						t.Fatalf("twin Ascend: %v", err)
					}
					fmt.Fprintf(&want, "END\n%d\n", len(twin.Snapshot()))
					if got := readReply(t, br, want.String(), true); got != want.String() {
						t.Fatalf("round %d (framed=%v, %d ops, ASCEND %d):\n got %q\nwant %q",
							round, framed, len(ops), lo, got, want.String())
					}
				}
				twin.Finish(0)
				if got, want := served.Snapshot(), twin.Snapshot(); !sets.KeysEqual(got, want) {
					t.Fatalf("final keys: %d served, %d on the twin", len(got), len(want))
				}
				if served.LiveNodes() != twin.LiveNodes() || served.DeferredNodes() != 0 {
					t.Fatalf("memory books: served live=%d deferred=%d, twin live=%d",
						served.LiveNodes(), served.DeferredNodes(), twin.LiveNodes())
				}
			})
		}
	}
}
