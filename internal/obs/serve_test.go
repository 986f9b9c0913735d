package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestSlowlogHandlerChecksN: /slowlog's n comes from outside. A count
// bounds the entries per domain, no n (or 0) returns everything retained,
// and anything that is not a non-negative integer is a 400 — it used to be
// scanned unchecked, so n=abc and n=-3 both dumped the whole log.
func TestSlowlogHandlerChecksN(t *testing.T) {
	d := NewDomain(DomainConfig{Name: "server", Threads: 1})
	sl := NewSlowlog(8, time.Hour)
	d.SetSlowlog(sl)
	for i := 0; i < 3; i++ {
		sp := newSpan("GET")
		sp.Finish(sp.start + int64(100*(i+1)))
		sl.Observe(sp)
	}
	reg := NewRegistry()
	reg.Register(d)
	h := reg.Handler()

	for _, tc := range []struct {
		query   string
		status  int
		entries int
	}{
		{"", http.StatusOK, 3},
		{"?n=0", http.StatusOK, 3},
		{"?n=2", http.StatusOK, 2},
		{"?n=50", http.StatusOK, 3},
		{"?n=abc", http.StatusBadRequest, 0},
		{"?n=-3", http.StatusBadRequest, 0},
		{"?n=2x", http.StatusBadRequest, 0},
		{"?n=99999999999999999999", http.StatusBadRequest, 0},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/slowlog"+tc.query, nil))
		if rec.Code != tc.status {
			t.Errorf("/slowlog%s: status %d, want %d", tc.query, rec.Code, tc.status)
			continue
		}
		if tc.status != http.StatusOK {
			continue
		}
		var dumps []SlowlogDump
		if err := json.Unmarshal(rec.Body.Bytes(), &dumps); err != nil {
			t.Errorf("/slowlog%s: %v", tc.query, err)
			continue
		}
		if len(dumps) != 1 || len(dumps[0].Entries) != tc.entries {
			t.Errorf("/slowlog%s: %+v, want one domain with %d entries", tc.query, dumps, tc.entries)
		}
	}
}
