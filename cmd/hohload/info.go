package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hohtx/internal/obs"
	"hohtx/internal/serve"
)

// getJSON decodes one of the server's obs endpoint documents.
func getJSON(addr, path string, v any) error {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	return nil
}

// fetchGC pulls the runtime-gc panel's cumulative counters from the
// server's /snapshot (see obs.GCSnapshot).
func fetchGC(addr string) (obs.GCStats, error) {
	var st obs.GCStats
	var doms []obs.DomainSnapshot
	if err := getJSON(addr, "/snapshot", &doms); err != nil {
		return st, err
	}
	for _, d := range doms {
		if d.Name != "runtime-gc" {
			continue
		}
		for _, g := range d.Gauges {
			switch g.Name {
			case "gc_cycles":
				st.Cycles = g.Value
			case "heap_allocs_objects":
				st.AllocObjects = g.Value
			}
		}
		return st, nil
	}
	return st, fmt.Errorf("no runtime-gc domain in /snapshot")
}

// forensics is the slowlog/hot-key summary of a run: how bad the worst
// request was, where its time went, and which key caused the most aborts.
type forensics struct {
	slowCount      int
	slowWorstNs    uint64
	slowWorstPhase string
	hotKey         uint64
	hotKeyAborts   uint64
}

// fetchForensics pulls /slowlog and /hotkeys from the server's obs
// endpoint. Across domains (there is normally exactly one slowlog, on the
// server domain) the worst entry wins and counts sum. The hot key is the
// cross-shard rollup's top entry by aborts caused.
func fetchForensics(addr string) (forensics, error) {
	var fz forensics
	var slow []obs.SlowlogDump
	if err := getJSON(addr, "/slowlog", &slow); err != nil {
		return fz, err
	}
	for _, d := range slow {
		fz.slowCount += len(d.Entries)
		for _, e := range d.Entries {
			if e.TotalNs > fz.slowWorstNs {
				fz.slowWorstNs = e.TotalNs
				fz.slowWorstPhase = e.WorstPhase
			}
		}
	}
	var hot []obs.HotKeysDump
	if err := getJSON(addr, "/hotkeys", &hot); err != nil {
		return fz, err
	}
	for _, d := range hot {
		if len(d.Rollup.ByAborts) > 0 && d.Rollup.ByAborts[0].Count > fz.hotKeyAborts {
			fz.hotKey = d.Rollup.ByAborts[0].Key
			fz.hotKeyAborts = d.Rollup.ByAborts[0].Count
		}
	}
	return fz, nil
}

// monitor samples INFO on its own connection every 50ms.
type monitor struct {
	br    *bufio.Reader // one reader for the connection's lifetime
	stopc chan struct{}
	done  chan struct{}
	info  serverInfo
	base  serverInfo // the first sample; tx counters diff against it
}

type serverInfo struct {
	variant  string
	shards   int
	slots    int
	liveMin  uint64
	liveMax  uint64
	deferred uint64
	commits  uint64
	serial   uint64
	aborts   uint64
	obsAddr  string // INFO obs=<addr>: the server's own advertisement of its obs endpoint
}

func startMonitor(addr string) (*monitor, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	m := &monitor{br: bufio.NewReader(c), stopc: make(chan struct{}), done: make(chan struct{})}
	first, err := queryInfo(c, m.br)
	if err != nil {
		c.Close()
		return nil, err
	}
	m.info = first
	m.base = first
	go func() {
		defer close(m.done)
		defer c.Close()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for stopped := false; !stopped; {
			select {
			case <-m.stopc:
				stopped = true // one last sample, past the final reply
			case <-tick.C:
			}
			if in, err := queryInfo(c, m.br); err == nil {
				m.merge(in)
			}
		}
	}()
	return m, nil
}

func (m *monitor) merge(in serverInfo) {
	m.info.liveMin = min(m.info.liveMin, in.liveMin)
	m.info.liveMax = max(m.info.liveMax, in.liveMax)
	m.info.deferred = in.deferred
	m.info.commits = in.commits
	m.info.serial = in.serial
	m.info.aborts = in.aborts
}

func (m *monitor) stop() serverInfo {
	close(m.stopc)
	<-m.done
	return m.info
}

// queryInfo sends one INFO request and parses the reply.
func queryInfo(c net.Conn, br *bufio.Reader) (serverInfo, error) {
	if _, err := fmt.Fprintf(c, "INFO\n"); err != nil {
		return serverInfo{}, err
	}
	line, err := br.ReadString('\n')
	if err != nil {
		return serverInfo{}, err
	}
	var in serverInfo
	for _, f := range strings.Fields(line) {
		k, v, _ := strings.Cut(f, "=")
		n, _ := strconv.ParseUint(v, 10, 64) // 0 for the two text fields
		switch k {
		case "variant":
			in.variant = v
		case "shards":
			in.shards = int(n)
		case "slots":
			in.slots = int(n)
		case "live":
			in.liveMin, in.liveMax = n, n
		case "deferred":
			in.deferred = n
		case "commits":
			in.commits = n
		case "serial":
			in.serial = n
		case "aborts":
			in.aborts = n
		case "obs":
			in.obsAddr = v
		}
	}
	if in.variant == "" {
		return serverInfo{}, fmt.Errorf("malformed INFO reply %q", strings.TrimSpace(line))
	}
	return in, nil
}

// oneShot sends a ';'-separated request pipeline and prints the replies.
// MULTI framing is understood: "MULTI n" consumes the next n requests as
// its body and yields n reply lines (the body lines get the replies, the
// MULTI line itself none).
func oneShot(w io.Writer, addr, script string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	var reqs []string
	for _, r := range strings.Split(script, ";") {
		if r = strings.TrimSpace(r); r != "" {
			reqs = append(reqs, r)
		}
	}
	bw := bufio.NewWriter(c)
	for _, r := range reqs {
		fmt.Fprintf(bw, "%s\n", r)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	sc := serve.NewLineScanner(bufio.NewReader(c))
	read := func(r string) ([]byte, error) {
		line, err := sc.Line()
		if err == nil {
			fmt.Fprintf(w, "%-12s -> %s\n", r, line)
		}
		return line, err
	}
	for i := 0; i < len(reqs); i++ {
		if serve.Streams([]byte(reqs[i])) {
			// OK lines for a scan, SLOW lines for a slowlog dump.
			fmt.Fprintf(w, "%-12s    (stream)\n", reqs[i])
			for {
				line, err := read("")
				if err != nil {
					return err
				}
				if string(line) == "END" || bytes.HasPrefix(line, []byte("ERR")) {
					break
				}
			}
			continue
		}
		n := 0
		if arg, ok := strings.CutPrefix(reqs[i], "MULTI "); ok {
			n, _ = strconv.Atoi(strings.TrimSpace(arg))
		}
		if n < 1 || i+n >= len(reqs) {
			if _, err := read(reqs[i]); err != nil {
				return err
			}
			continue
		}
		// A well-formed frame: one reply per body line, none for the header.
		fmt.Fprintf(w, "%-12s    (batch of %d)\n", reqs[i], n)
		for j := 0; j < n; j++ {
			i++
			if _, err := read(reqs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
