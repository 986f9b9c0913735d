package serve

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// BenchmarkServePoint prices the request pipeline in process — scanner,
// parse, lease, RR-V list operation, reply render, and at the end of every
// burst of eight the lease release and forensics publication handle() does
// — with no socket in the way, bare and with an obs domain (the way
// cmd/hohserver and the benchmark always run). The difference between the
// two rows is what always-on request forensics cost per request; the
// conns=4 rows run four connections at once, so state they share (a
// histogram line, a sketch lock) shows up as a wider difference. The
// script is SET k / GET k+1 / DEL k over the odd keys of a 64-key list
// whose even keys are resident. One iteration is one request.
//
// EXPERIMENTS.md ("What request forensics cost") records it with -cpu 1
// and test binaries of the parent and the change alternated.
func BenchmarkServePoint(b *testing.B) {
	const burst = 8
	var script strings.Builder
	for k := 1; k < 64; k += 2 {
		fmt.Fprintf(&script, "SET %d\nGET %d\nDEL %d\n", k, k+1, k)
	}
	for _, cfg := range allocConfigs {
		for _, conns := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/conns=%d", cfg.name, conns), func(b *testing.B) {
				procs := runtime.GOMAXPROCS(0)
				srv := newAllocServer(b, max(conns, procs), cfg.traced)
				fill := srv.newConn(strings.NewReader(""), io.Discard)
				for k := 2; k <= 64; k += 2 {
					fill.serveLine([]byte(fmt.Sprintf("SET %d", k)))
				}
				fill.endBurst()
				serve := func(next func() bool) {
					c := srv.newConn(&loopReader{data: []byte(script.String())}, io.Discard)
					defer c.endBurst()
					for n := 1; next(); n++ {
						line, _ := c.sc.Line()
						if !c.serveLine(line) {
							b.Error("connection dropped")
							return
						}
						if n%burst == 0 {
							c.endBurst()
							c.last = 0 // handle's next read would go to the network
						}
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				if conns == 1 {
					i := 0
					serve(func() bool { i++; return i <= b.N })
					return
				}
				b.SetParallelism((conns + procs - 1) / procs) // RunParallel starts procs × this many
				b.RunParallel(func(pb *testing.PB) { serve(pb.Next) })
			})
		}
	}
}
