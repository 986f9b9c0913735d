package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a mutable set of Domains for the HTTP export surface.
// Drivers that build structures on the fly (cmd/torture's sweep) register
// each instance's domain for the duration of its run.
type Registry struct {
	mu      sync.Mutex
	domains map[*Domain]struct{}
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{domains: make(map[*Domain]struct{})}
}

// Register adds d (nil-safe no-op).
func (r *Registry) Register(d *Domain) {
	if d == nil {
		return
	}
	r.mu.Lock()
	r.domains[d] = struct{}{}
	r.mu.Unlock()
}

// Unregister removes d.
func (r *Registry) Unregister(d *Domain) {
	if d == nil {
		return
	}
	r.mu.Lock()
	delete(r.domains, d)
	r.mu.Unlock()
}

// Snapshots returns every registered domain's snapshot, name-ordered,
// plus the synthetic "runtime-gc" panel (see gc.go) — every export
// surface built on Snapshots gets the GC telemetry for free.
func (r *Registry) Snapshots() []DomainSnapshot {
	r.mu.Lock()
	ds := make([]*Domain, 0, len(r.domains))
	for d := range r.domains {
		ds = append(ds, d)
	}
	r.mu.Unlock()
	out := make([]DomainSnapshot, 0, len(ds)+1)
	for _, d := range ds {
		out = append(out, d.Snapshot())
	}
	out = append(out, GCSnapshot())
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// promName sanitizes a label into a Prometheus metric-name segment.
func promName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteProm renders every registered domain in the Prometheus text
// exposition format (hand-written over the stdlib: no client library).
func (r *Registry) WriteProm(w *strings.Builder) {
	for _, s := range r.Snapshots() {
		dom := promName(s.Name)
		for _, h := range s.Histograms {
			m := fmt.Sprintf("hohtx_%s_%s", dom, promName(h.Name))
			fmt.Fprintf(w, "# TYPE %s histogram\n", m)
			var cum uint64
			for b, c := range h.Buckets {
				cum += c
				fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", m, BucketUpper(b), cum)
			}
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m, h.Count)
			fmt.Fprintf(w, "%s_sum %d\n", m, h.Sum)
			fmt.Fprintf(w, "%s_count %d\n", m, h.Count)
		}
		for _, g := range s.Gauges {
			m := fmt.Sprintf("hohtx_%s_%s", dom, promName(g.Name))
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", m, m, g.Value)
		}
		for _, e := range s.Aborts {
			m := fmt.Sprintf("hohtx_%s_aborted_by_total", dom)
			fmt.Fprintf(w, "%s{victim=\"%d\",owner=\"%d\"} %d\n", m, e.Victim, e.Owner, e.Count)
		}
	}
}

// sortedDomains returns the registered domains, name-ordered.
func (r *Registry) sortedDomains() []*Domain {
	r.mu.Lock()
	ds := make([]*Domain, 0, len(r.domains))
	for d := range r.domains {
		ds = append(ds, d)
	}
	r.mu.Unlock()
	sort.Slice(ds, func(i, j int) bool { return ds[i].name < ds[j].name })
	return ds
}

// SlowlogDump is one domain's /slowlog JSON element.
type SlowlogDump struct {
	Domain   string      `json:"domain"`
	WindowMs int64       `json:"window_ms"`
	Cap      int         `json:"cap"`
	Entries  []SlowEntry `json:"entries"`
}

// SlowlogDumps collects every registered domain's attached slowlog (n
// bounds entries per domain; ≤ 0 = all retained).
func (r *Registry) SlowlogDumps(n int) []SlowlogDump {
	out := []SlowlogDump{}
	for _, d := range r.sortedDomains() {
		sl := d.SlowlogOf()
		if sl == nil {
			continue
		}
		entries := sl.Entries(n)
		if entries == nil {
			entries = []SlowEntry{}
		}
		out = append(out, SlowlogDump{
			Domain:   d.name,
			WindowMs: sl.Window().Milliseconds(),
			Cap:      sl.Cap(),
			Entries:  entries,
		})
	}
	return out
}

// HotKeysDump is one domain's /hotkeys JSON element: each shard's
// sketches plus the cross-shard rollup.
type HotKeysDump struct {
	Domain string     `json:"domain"`
	Shards []HotShard `json:"shards"`
	Rollup HotShard   `json:"rollup"`
}

// HotKeysDumps collects every registered domain's attached sketches.
func (r *Registry) HotKeysDumps() []HotKeysDump {
	out := []HotKeysDump{}
	for _, d := range r.sortedDomains() {
		hot := d.HotKeysOf()
		if len(hot) == 0 {
			continue
		}
		dump := HotKeysDump{Domain: d.name, Rollup: RollupHot(hot)}
		for i, h := range hot {
			if h != nil {
				dump.Shards = append(dump.Shards, h.Snapshot(i))
			}
		}
		out = append(out, dump)
	}
	return out
}

// Handler returns the registry's HTTP mux: /metrics (Prometheus text),
// /snapshot (the DomainSnapshot list as JSON), /flight (recorder dumps),
// /slowlog and /hotkeys (the request-forensics surfaces, JSON) and the
// net/http/pprof endpoints under /debug/pprof/.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		r.WriteProm(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprint(w, b.String())
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshots())
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		for _, d := range r.sortedDomains() {
			d.DumpFlight(w, 200)
		}
	})
	mux.HandleFunc("/slowlog", func(w http.ResponseWriter, req *http.Request) {
		n := 0 // no n: everything retained
		if v := req.URL.Query().Get("n"); v != "" {
			var err error
			if n, err = strconv.Atoi(v); err != nil || n < 0 {
				http.Error(w, "slowlog: n must be a non-negative integer", http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.SlowlogDumps(n))
	})
	mux.HandleFunc("/hotkeys", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.HotKeysDumps())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the metrics/pprof endpoint on addr (e.g. "127.0.0.1:6070";
// port 0 picks a free one) and returns the bound address. The server runs
// until the process exits; drivers treat it as a debugging tap, not a
// managed component.
func Serve(addr string, r *Registry) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: r.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), nil
}
