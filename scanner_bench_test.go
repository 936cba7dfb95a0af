package arbloop_test

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"arbloop"
	"arbloop/internal/convexopt"
	"arbloop/internal/distrib"
	"arbloop/internal/experiments"
	"arbloop/internal/server"
)

// benchSource builds the paper-calibrated §VI market as a combined pool +
// price source.
func benchSource(tb testing.TB) *arbloop.SnapshotSource {
	tb.Helper()
	snap, err := arbloop.GenerateMarket(arbloop.DefaultGeneratorConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return arbloop.FromSnapshot(snap.FilterPools(30_000, 100))
}

// benchScanner builds a Scanner over the paper-calibrated §VI market.
func benchScanner(tb testing.TB, strategy arbloop.Strategy, parallelism int, extra ...arbloop.ScannerOption) *arbloop.Scanner {
	tb.Helper()
	src := benchSource(tb)
	opts := append([]arbloop.ScannerOption{
		arbloop.WithStrategy(strategy),
		arbloop.WithParallelism(parallelism),
	}, extra...)
	sc, err := arbloop.NewScanner(src, src, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return sc
}

func benchmarkScan(b *testing.B, strategy arbloop.Strategy, parallelism int) {
	sc := benchScanner(b, strategy, parallelism)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	loops := 0
	for i := 0; i < b.N; i++ {
		report, err := sc.Scan(ctx)
		if err != nil {
			b.Fatal(err)
		}
		loops = report.LoopsDetected
	}
	b.ReportMetric(float64(loops)*float64(b.N)/b.Elapsed().Seconds(), "loops/s")
}

func BenchmarkScanMaxMaxParallel1(b *testing.B) {
	benchmarkScan(b, arbloop.MaxMaxStrategy{}, 1)
}

func BenchmarkScanMaxMaxParallelN(b *testing.B) {
	benchmarkScan(b, arbloop.MaxMaxStrategy{}, runtime.GOMAXPROCS(0))
}

func BenchmarkScanConvexParallel1(b *testing.B) {
	benchmarkScan(b, arbloop.ConvexStrategy{}, 1)
}

func BenchmarkScanConvexParallelN(b *testing.B) {
	benchmarkScan(b, arbloop.ConvexStrategy{}, runtime.GOMAXPROCS(0))
}

// BenchmarkScanColdTopology measures scans with the topology cache
// disabled: every scan re-enumerates cycles.
func BenchmarkScanColdTopology(b *testing.B) {
	sc := benchScanner(b, arbloop.MaxMaxStrategy{}, 1, arbloop.WithTopologyCache(-1))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Scan(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanWarmTopology measures the block-after-block case: the
// topology is cached, so scans skip enumeration and only re-orient and
// re-optimize.
func BenchmarkScanWarmTopology(b *testing.B) {
	sc := benchScanner(b, arbloop.MaxMaxStrategy{}, 1)
	ctx := context.Background()
	if _, err := sc.Scan(ctx); err != nil { // prime the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Scan(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanFullWarm measures the pre-delta per-block path: topology
// cached, but every loop re-optimized on every scan, with ~10% of pools
// trading between scans.
func BenchmarkScanFullWarm(b *testing.B) {
	benchmarkDeltaVsFull(b, false)
}

// BenchmarkScanDelta10pct measures the delta path on the same workload:
// ~10% of pools trade between scans, so only the loops they touch
// re-optimize.
func BenchmarkScanDelta10pct(b *testing.B) {
	benchmarkDeltaVsFull(b, true)
}

func benchmarkDeltaVsFull(b *testing.B, delta bool) {
	market, prices := newMutableMarket(b)
	sc, err := arbloop.NewScanner(market, prices, arbloop.WithDeltaScans(delta))
	if err != nil {
		b.Fatal(err)
	}
	w := arbloop.NewWatcher(market)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(29))
	u, err := w.Refresh(ctx)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sc.ScanDelta(ctx, u); err != nil { // prime topology + delta state
		b.Fatal(err)
	}
	dirty := len(u.Pools) / 10
	if dirty == 0 {
		dirty = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		market.trade(b, rng, dirty)
		if u, err = w.Refresh(ctx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sc.ScanDelta(ctx, u); err != nil {
			b.Fatal(err)
		}
	}
}

// raceSkip says why a wall-clock bar does not run under the race
// detector.
const raceSkip = "race detector on: it slows code several-fold and unevenly, so a wall-clock ratio would measure its instrumentation"

// skipWallClockUnderRace skips a wall-clock bar when the race detector
// is on (see raceEnabled).
func skipWallClockUnderRace(tb testing.TB) {
	tb.Helper()
	if raceEnabled {
		tb.Skip(raceSkip)
	}
}

// interleave calls a and b pairs times each, alternating which goes
// first so cache warmth and clock drift favour neither, and returns
// their durations by pair. Host noise comes in bursts longer than one
// pair, so both sides of a pair see a burst alike.
func interleave(pairs int, a, b func() time.Duration) (as, bs []time.Duration) {
	as, bs = make([]time.Duration, pairs), make([]time.Duration, pairs)
	for i := range pairs {
		if i%2 == 0 {
			as[i] = a()
			bs[i] = b()
		} else {
			bs[i] = b()
			as[i] = a()
		}
	}
	return as, bs
}

// medianRatio is the median over pairs of num[i]/den[i]. A burst that
// splits a pair moves only that pair's ratio, and the median discards
// it.
func medianRatio(num, den []time.Duration) float64 {
	r := make([]float64, len(num))
	for i := range num {
		r[i] = float64(num[i]) / float64(den[i])
	}
	slices.Sort(r)
	return r[len(r)/2]
}

// timeScan times one batch scan.
func timeScan(tb testing.TB, sc *arbloop.Scanner) time.Duration {
	tb.Helper()
	start := time.Now()
	if _, err := sc.Scan(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

// TestTopologyCacheWarmBeatsCold holds the topology cache to its
// purpose: block after block, a scan that reuses the cached cycle
// enumeration must beat one that enumerates again. Cold and warm scans
// of the §VI market alternate at parallelism 1, and the median pair
// ratio must exceed 1. A 2-CPU Xeon reads 2.2–2.7× at loop length 3 and
// 1.8–3.4× at length 4.
func TestTopologyCacheWarmBeatsCold(t *testing.T) {
	skipWallClockUnderRace(t)
	const pairs = 31
	src := benchSource(t)
	for _, loopLen := range []int{3, 4} {
		scanner := func(cache int) *arbloop.Scanner {
			sc, err := arbloop.NewScanner(src, src,
				arbloop.WithParallelism(1),
				arbloop.WithLoopLengths(loopLen, loopLen),
				arbloop.WithTopologyCache(cache),
			)
			if err != nil {
				t.Fatal(err)
			}
			timeScan(t, sc) // primes the warm cache; pays cold caches on both
			return sc
		}
		cold, warm := scanner(-1), scanner(0)
		tc, tw := interleave(pairs,
			func() time.Duration { return timeScan(t, cold) },
			func() time.Duration { return timeScan(t, warm) })
		speedup := medianRatio(tc, tw)
		t.Logf("topology cache len %d: warm %.2fx cold, median of %d interleaved pairs", loopLen, speedup, pairs)
		if speedup <= 1 {
			t.Errorf("len-%d warm scans not faster than cold (%.2fx, median of %d interleaved pairs)", loopLen, speedup, pairs)
		}
	}
}

// TestDeltaScanBeatsFull holds the delta engine to the paper's
// per-block regime, ~10% of pools trading between scans. A delta scan
// must re-optimize at most half the loops, a count that also holds
// under the race detector, and must beat a full scan of the same update
// with the topology cached, median pair ratio above 1. One watcher feeds
// both scanners, which alternate on each update. A 2-CPU Xeon reads 27%,
// 35% and 27% of loops re-optimized and median pair ratios of 2.5–2.9×,
// 1.5–3.4× and 2.1–2.6×.
func TestDeltaScanBeatsFull(t *testing.T) {
	for _, cfg := range []struct {
		strat         arbloop.Strategy
		loopLen, runs int
	}{
		{arbloop.MaxMaxStrategy{}, 3, 200},
		{arbloop.MaxMaxStrategy{}, 4, 40},
		{arbloop.ConvexStrategy{}, 3, 20},
	} {
		t.Run(fmt.Sprintf("%s/len%d", cfg.strat.Name(), cfg.loopLen), func(t *testing.T) {
			ctx := context.Background()
			market, prices := newMutableMarket(t)
			scanner := func(delta bool) *arbloop.Scanner {
				sc, err := arbloop.NewScanner(market, prices,
					arbloop.WithStrategy(cfg.strat),
					arbloop.WithParallelism(1),
					arbloop.WithLoopLengths(cfg.loopLen, cfg.loopLen),
					arbloop.WithDeltaScans(delta),
				)
				if err != nil {
					t.Fatal(err)
				}
				return sc
			}
			full, delta := scanner(false), scanner(true)
			w := arbloop.NewWatcher(market)
			var u arbloop.PoolUpdate
			var reoptimized, detected int
			scan := func(sc *arbloop.Scanner) time.Duration {
				start := time.Now()
				vr, err := sc.ScanDelta(ctx, u)
				elapsed := time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				if sc == delta {
					reoptimized += vr.Report.LoopsReoptimized
					detected += vr.Report.LoopsDetected
				}
				return elapsed
			}
			refresh := func() {
				var err error
				if u, err = w.Refresh(ctx); err != nil {
					t.Fatal(err)
				}
			}
			refresh()
			scan(full) // primes the topology cache and the delta state
			scan(delta)
			reoptimized, detected = 0, 0
			rng := rand.New(rand.NewSource(int64(97 + cfg.loopLen)))
			dirty := len(u.Pools) / 10
			tf, td := make([]time.Duration, cfg.runs), make([]time.Duration, cfg.runs)
			for i := range cfg.runs {
				market.trade(t, rng, dirty)
				refresh()
				if i%2 == 0 {
					tf[i], td[i] = scan(full), scan(delta)
				} else {
					td[i], tf[i] = scan(delta), scan(full)
				}
			}
			share := 100 * float64(reoptimized) / float64(detected)
			t.Logf("%d of %d pools trading per scan: %.0f%% of loops re-optimized", dirty, len(u.Pools), share)
			if share > 50 {
				t.Errorf("delta scans re-optimized %.0f%% of loops on a 10%% dirty feed, want at most 50%%", share)
			}
			if raceEnabled {
				t.Log("speed bar skipped: " + raceSkip)
				return
			}
			speedup := medianRatio(tf, td)
			t.Logf("delta %.2fx full, median of %d interleaved pairs", speedup, cfg.runs)
			if speedup <= 1 {
				t.Errorf("delta scans not faster than full (%.2fx, median of %d interleaved pairs)", speedup, cfg.runs)
			}
		})
	}
}

// TestConvexExactBeatsBarrier holds the exact convex solve well clear of
// the barrier method the paper's §VII times. On the §VI market's
// length-3 loops and the problems experiments.StageBarrier stages for
// them, strategy.Convex must run at least 3.5× as fast as
// convexopt.Minimize, median of 9 interleaved passes: a solve that fell
// back to iterating would close the gap. A 2-CPU Xeon reads 70–120×.
func TestConvexExactBeatsBarrier(t *testing.T) {
	skipWallClockUnderRace(t)
	const passes, runs = 9, 8
	ctx := context.Background()
	src := benchSource(t)
	sc, err := arbloop.NewScanner(src, src, arbloop.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Scan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tokens := map[string]struct{}{}
	for _, r := range rep.Results {
		for i := 0; i < r.Loop.Len(); i++ {
			tokens[r.Loop.Token(i)] = struct{}{}
		}
	}
	symbols := make([]string, 0, len(tokens))
	for s := range tokens {
		symbols = append(symbols, s)
	}
	fetched, err := src.Prices(ctx, symbols)
	if err != nil {
		t.Fatal(err)
	}
	prices := arbloop.PriceMap(fetched)

	// Stage each loop's problem and interior start once. Loops without an
	// interior start are left out: the barrier method cannot start on
	// them.
	type staged struct {
		loop  *arbloop.Loop
		dense convexopt.Problem
		x0    []float64
	}
	var probs []staged
	for _, r := range rep.Results {
		p, x0, err := experiments.StageBarrier(r.Loop, prices)
		if err != nil {
			t.Fatal(err)
		}
		if x0 != nil {
			probs = append(probs, staged{loop: r.Loop, dense: p.Generic(), x0: x0})
		}
	}
	if len(probs) == 0 {
		t.Fatal("no loop has an interior start")
	}
	// pass solves every staged loop runs times; barrier errors count as
	// solves too.
	pass := func(barrier bool) time.Duration {
		start := time.Now()
		for range runs {
			for _, s := range probs {
				if barrier {
					_, _ = convexopt.Minimize(s.dense, s.x0, experiments.BarrierOptions)
				} else if _, err := arbloop.Convex(s.loop, prices); err != nil {
					t.Fatal(err)
				}
			}
		}
		return time.Since(start)
	}
	pass(false) // warm-up: workspace growth and cold caches
	pass(true)
	exact, barrier := interleave(passes,
		func() time.Duration { return pass(false) },
		func() time.Duration { return pass(true) })
	speedup := medianRatio(barrier, exact)
	t.Logf("%d of %d loops staged: exact solve %.1fx Minimize, median of %d interleaved passes",
		len(probs), len(rep.Results), speedup, passes)
	if speedup < 3.5 {
		t.Errorf("exact solve only %.2fx Minimize (median of %d interleaved passes), want at least 3.5x", speedup, passes)
	}
}

// TestCachedReadBeatsPerRequestEncode holds the encode-once frame to its
// purpose: the best cached read of a published report, a gzip read or a
// 304 revalidation through Server.Handler(), must be at least 10× as fast
// as a handler that marshals and compresses the same 20-result §VI
// report on every request. Both sides run at the handler layer in the
// same process, in alternating rounds; the median round ratio is the
// reading. A 2-CPU Xeon reads 60–125×.
func TestCachedReadBeatsPerRequestEncode(t *testing.T) {
	skipWallClockUnderRace(t)
	const rounds, cachedPerRound, encodedPerRound = 15, 500, 5
	src := benchSource(t)
	sc, err := arbloop.NewScanner(src, src, arbloop.WithTopK(20))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Scan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wire := distrib.Encode(rep, 1, 1)
	srv := server.New()
	if err := srv.Publish(wire, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cached := srv.Handler()
	// The reference encodes as the frame store does, through one recycled
	// compressor, but on every request.
	zw := gzip.NewWriter(io.Discard)
	encodeEach := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		body, err := json.Marshal(wire)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Encoding", "gzip")
		zw.Reset(w)
		_, _ = zw.Write(body)
		_ = zw.Close()
	})
	request := func(key, value string) *http.Request {
		r := httptest.NewRequest(http.MethodGet, "/v1/report", nil)
		r.Header.Set(key, value)
		return r
	}
	gzipRead := request("Accept-Encoding", "gzip")
	revalidate := request("If-None-Match", srv.Store().Frame().ETag)
	for _, c := range []struct {
		h    http.Handler
		r    *http.Request
		code int
	}{{cached, gzipRead, http.StatusOK}, {cached, revalidate, http.StatusNotModified}, {encodeEach, gzipRead, http.StatusOK}} {
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, c.r) // warm-up; the first gzip read compresses the frame
		if rec.Code != c.code {
			t.Fatalf("status %d, want %d", rec.Code, c.code)
		}
	}
	// perRequest serves n requests and returns the mean time of one.
	perRequest := func(h http.Handler, r *http.Request, n int) time.Duration {
		start := time.Now()
		for range n {
			h.ServeHTTP(httptest.NewRecorder(), r)
		}
		return time.Since(start) / time.Duration(n)
	}
	tc, te := interleave(rounds,
		func() time.Duration {
			return min(perRequest(cached, gzipRead, cachedPerRound), perRequest(cached, revalidate, cachedPerRound))
		},
		func() time.Duration { return perRequest(encodeEach, gzipRead, encodedPerRound) })
	speedup := medianRatio(te, tc)
	t.Logf("best cached read %v, marshal+gzip per request %v: %.0fx, median of %d interleaved rounds",
		slices.Min(tc), slices.Min(te), speedup, rounds)
	if speedup < 10 {
		t.Errorf("best cached read only %.1fx a per-request encode (median of %d interleaved rounds), want at least 10x", speedup, rounds)
	}
}

// fanOutPairs is the fewest interleaved scan pairs
// BenchmarkScanConvexFanOut asserts its bar on; `make bench` runs that
// many.
const fanOutPairs = 15

// BenchmarkScanConvexFanOut times whole-market length-4 Convex scans
// (755 loops on the §VI market) at parallelism 1 and at
// min(NumCPU, GOMAXPROCS), one interleaved pair per iteration, and
// reports the speedup fastest to fastest and as the median pair ratio.
// With at least fanOutPairs pairs it fails unless the fastest parallel
// scan beats the fastest serial one. It is a benchmark, not a test: on a
// 2-CPU Xeon the gain at this length is within noise (see the
// internal/scan package doc), so no tier-1 test could hold it.
func BenchmarkScanConvexFanOut(b *testing.B) {
	n := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if n < 2 {
		b.Skipf("NumCPU %d, GOMAXPROCS %d: no parallel hardware to speed up on", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	skipWallClockUnderRace(b)
	serial := benchScanner(b, arbloop.ConvexStrategy{}, 1, arbloop.WithLoopLengths(4, 4))
	parallel := benchScanner(b, arbloop.ConvexStrategy{}, n, arbloop.WithLoopLengths(4, 4))
	timeScan(b, serial) // warm-up: topology cache, workspaces, cold caches
	timeScan(b, parallel)
	b.ResetTimer()
	ts, tp := interleave(b.N,
		func() time.Duration { return timeScan(b, serial) },
		func() time.Duration { return timeScan(b, parallel) })
	fastest, median := float64(slices.Min(ts))/float64(slices.Min(tp)), medianRatio(ts, tp)
	b.ReportMetric(fastest, "speedup-fastest")
	b.ReportMetric(median, "speedup-median-pair")
	if b.N >= fanOutPairs && fastest <= 1 {
		b.Errorf("Convex len 4 at parallelism %d shows no speedup over 1 (%.2fx fastest of %d interleaved scans each, %.2fx median pair)",
			n, fastest, b.N, median)
	}
}
