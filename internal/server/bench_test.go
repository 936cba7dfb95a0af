package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"arbloop/internal/distrib"
)

// discardRW is the cheapest possible ResponseWriter: alloc measurements
// and benchmarks see the handler's own cost, not a recorder's buffers.
type discardRW struct {
	h http.Header
	n int64
}

func (d *discardRW) Header() http.Header { return d.h }
func (d *discardRW) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}
func (d *discardRW) WriteHeader(int) {}

// benchHandler returns the mux serving a published ~200-result report
// (large enough that any per-request re-encode or re-compress would blow
// the alloc budgets by orders of magnitude).
func benchHandler(tb testing.TB) (http.Handler, *Server) {
	tb.Helper()
	srv := New()
	if err := srv.Publish(bigReport(1, 9, 200), time.Millisecond); err != nil {
		tb.Fatal(err)
	}
	return srv.Handler(), srv
}

// TestReportSteadyStateAllocBudget pins the read path's allocation
// ceiling: steady-state GET /v1/report — plain, gzip-negotiated, and
// If-None-Match revalidation — performs zero JSON marshaling and zero
// gzip compression per request. The budgets (a handful of header-map
// slices and the mux's routing bookkeeping) are far below what a single
// re-encode (hundreds of allocs) or re-compress would cost, so any
// regression that sneaks encoding back into the request path fails here.
func TestReportSteadyStateAllocBudget(t *testing.T) {
	h, _ := benchHandler(t)

	measure := func(name string, budget float64, mk func() *http.Request) {
		t.Helper()
		req := mk()
		w := &discardRW{h: make(http.Header)}
		h.ServeHTTP(w, req) // warm-up (lazy mux state)
		allocs := testing.AllocsPerRun(200, func() {
			h.ServeHTTP(w, req)
		})
		t.Logf("%-14s %4.0f allocs/request (budget %.0f)", name, allocs, budget)
		if allocs > budget {
			t.Errorf("%s path allocates %.0f/request, budget %.0f — did encoding leak back into the read path?",
				name, allocs, budget)
		}
	}

	// Measured on a 2-CPU Xeon host with Go 1.24: plain 7, gzip 8,
	// not_modified 4, top5 10. The gzip row reads a frame its warm-up
	// call already compressed, which serves with no new allocation.
	// Budgets leave ~2x headroom for stdlib drift while staying orders
	// of magnitude below one re-encode.
	measure("plain", 12, func() *http.Request {
		return httptest.NewRequest(http.MethodGet, "/v1/report", nil)
	})
	measure("gzip", 12, func() *http.Request {
		req := httptest.NewRequest(http.MethodGet, "/v1/report", nil)
		req.Header.Set("Accept-Encoding", "gzip")
		return req
	})
	measure("not_modified", 8, func() *http.Request {
		req := httptest.NewRequest(http.MethodGet, "/v1/report", nil)
		req.Header.Set("If-None-Match", `"v1-h9"`)
		return req
	})
	// ?top=N parses the query (a few more allocs) but still never
	// re-encodes.
	measure("top5", 18, func() *http.Request {
		return httptest.NewRequest(http.MethodGet, "/v1/report?top=5", nil)
	})
}

func benchmarkReport(b *testing.B, mk func() *http.Request) {
	h, _ := benchHandler(b)
	req := mk()
	w := &discardRW{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
	b.SetBytes(w.n / int64(b.N))
}

// `make bench-server` smoke: the four read paths at the handler layer
// (no sockets), proving the frame fast path stays engaged.
func BenchmarkServerReportPlain(b *testing.B) {
	benchmarkReport(b, func() *http.Request {
		return httptest.NewRequest(http.MethodGet, "/v1/report", nil)
	})
}

func BenchmarkServerReportGzip(b *testing.B) {
	benchmarkReport(b, func() *http.Request {
		req := httptest.NewRequest(http.MethodGet, "/v1/report", nil)
		req.Header.Set("Accept-Encoding", "gzip")
		return req
	})
}

func BenchmarkServerReportNotModified(b *testing.B) {
	benchmarkReport(b, func() *http.Request {
		req := httptest.NewRequest(http.MethodGet, "/v1/report", nil)
		req.Header.Set("If-None-Match", `"v1-h9"`)
		return req
	})
}

func BenchmarkServerReportTop5(b *testing.B) {
	benchmarkReport(b, func() *http.Request {
		return httptest.NewRequest(http.MethodGet, "/v1/report?top=5", nil)
	})
}

func benchmarkPublish(b *testing.B, rep distrib.ReportJSON) {
	srv := New()
	b.ReportAllocs()
	for b.Loop() {
		if err := srv.Publish(rep, time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerPublish prices the write side: one frame build (encode
// + SSE framing + prefix index + ETags) per block, at 200 results.
func BenchmarkServerPublish(b *testing.B) {
	benchmarkPublish(b, bigReport(1, 9, 200))
}

// BenchmarkServerPublishTop20 prices it at the shape serve publishes
// (top20Report, the TestPublishAllocBudget fixture).
func BenchmarkServerPublishTop20(b *testing.B) {
	benchmarkPublish(b, top20Report(1, 9))
}

// BenchmarkServerReportGzipFirst prices what a publish no longer pays:
// one Publish of the top20Report shape and the first gzip read of its
// frame, which compresses it, per iteration. Set beside
// BenchmarkServerPublishTop20, the difference is one frame's compression.
func BenchmarkServerReportGzipFirst(b *testing.B) {
	srv := New()
	h, rep := srv.Handler(), top20Report(1, 9)
	req := httptest.NewRequest(http.MethodGet, "/v1/report", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	w := &discardRW{h: make(http.Header)}
	b.ReportAllocs()
	for b.Loop() {
		if err := srv.Publish(rep, time.Millisecond); err != nil {
			b.Fatal(err)
		}
		h.ServeHTTP(w, req)
	}
	if n := srv.Store().GzipBuilds.Load(); n < uint64(b.N) {
		b.Fatalf("%d gzip builds for %d first reads", n, b.N)
	}
}

// top20Report is shaped like the report serve publishes at its default
// -top 20 on the paper's market (compare `arbloop scan -top 20 -json`):
// MaxMax results on length-3 loops, each with a start token, an input,
// and net_tokens over the loop's three tokens, the profit in the start
// token and zero in the other two.
func top20Report(version uint64, height int64) distrib.ReportJSON {
	r := sampleReport(version, height)
	r.Tokens, r.Pools, r.CyclesExamined, r.LoopsDetected = 51, 208, 187, 123
	r.LoopsReoptimized, r.LoopsReused = 7, 116
	for i := 0; i < 20; i++ {
		a, b := fmt.Sprintf("TK%d", i+10), fmt.Sprintf("TK%d", i+30)
		scale := 1 / float64(i+1)
		r.Results = append(r.Results, distrib.ResultJSON{
			Index:      3*i + 11,
			Loop:       "DAI→" + a + "→" + b + "→DAI",
			Strategy:   "MaxMax",
			StartToken: b,
			Input:      2377.75704225721 * scale,
			ProfitUSD:  292.7956274846285 * scale,
			NetTokens:  map[string]float64{"DAI": 0, a: 0, b: 68.30966362187883 * scale},
		})
	}
	return r
}

// TestPublishAllocBudget pins the write side's garbage: one Publish of a
// serve-shaped report encodes and frames the block through the store's
// append encoder into its reused buffer, and compresses nothing. What
// remains is the frame, its offset and ETag tables, the ETag string and
// the SSE bytes. Measured on a 2-CPU Xeon host with Go 1.24: 5 allocs
// and 5.8 kB, the same under -race. Both budgets leave ~2x headroom, as
// TestReportSteadyStateAllocBudget does; encoding/json, which walks the
// net_tokens maps in ~140 allocations, fails the count budget.
func TestPublishAllocBudget(t *testing.T) {
	const runs, byteBudget, allocBudget = 200, 12 << 10, 10
	srv, rep := New(), top20Report(1, 9)
	publish := func() {
		if err := srv.Publish(rep, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	// Counted like testing.AllocsPerRun (GOMAXPROCS 1, one warm-up
	// call), plus bytes.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	publish()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		publish()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("publish: %.0f allocs (budget %d), %.1f kB (budget %d kB)", allocs, allocBudget, bytes/1024, byteBudget>>10)
	if bytes > byteBudget {
		t.Errorf("publish allocates %.1f kB, budget %d kB: is the frame store compressing or building an encoder per block?",
			bytes/1024, byteBudget>>10)
	}
	if allocs > allocBudget {
		t.Errorf("publish allocates %.0f times, budget %d", allocs, allocBudget)
	}
}
