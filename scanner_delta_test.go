package arbloop_test

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"arbloop"
	"arbloop/internal/distrib"
)

// mutableMarket is a PoolSource whose reserves tests move between
// refreshes — the feed-driven equivalent of retail flow.
type mutableMarket struct {
	mu    sync.Mutex
	pools []*arbloop.Pool
}

func newMutableMarket(t testing.TB) (*mutableMarket, arbloop.PriceSource) {
	t.Helper()
	snap, err := arbloop.GenerateMarket(arbloop.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	filtered := snap.FilterPools(30_000, 100)
	src := arbloop.FromSnapshot(filtered)
	pools, err := src.Pools(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return &mutableMarket{pools: pools}, src
}

func (m *mutableMarket) Pools(ctx context.Context) ([]*arbloop.Pool, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*arbloop.Pool, len(m.pools))
	for i, p := range m.pools {
		np, err := arbloop.NewPool(p.ID, p.Token0, p.Token1, p.Reserve0, p.Reserve1, p.Fee)
		if err != nil {
			return nil, err
		}
		out[i] = np
	}
	return out, nil
}

// trade moves the reserves of n random pools, preserving topology.
func (m *mutableMarket) trade(t testing.TB, rng *rand.Rand, n int) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, i := range rng.Perm(len(m.pools))[:n] {
		p := m.pools[i]
		np, err := arbloop.NewPool(p.ID, p.Token0, p.Token1,
			p.Reserve0*(0.95+0.1*rng.Float64()), p.Reserve1*(0.95+0.1*rng.Float64()), p.Fee)
		if err != nil {
			t.Fatal(err)
		}
		m.pools[i] = np
	}
}

// normalize blanks the delta-path bookkeeping so delta and full reports
// can be compared field-for-field through the wire encoding.
func normalize(rep arbloop.ScanReport) distrib.ReportJSON {
	rep.TopologyCacheHit = false
	rep.LoopsReoptimized = 0
	rep.LoopsReused = 0
	rep.ShardsScanned = 0
	return distrib.Encode(rep, 0, 0)
}

// TestScanDeltaMatchesFullScanOverFeed drives the full public stack —
// Watcher dirty sets included — over random reserve updates and asserts
// every delta report is identical to a full scan of the same update.
func TestScanDeltaMatchesFullScanOverFeed(t *testing.T) {
	market, prices := newMutableMarket(t)
	rng := rand.New(rand.NewSource(41))

	deltaSc, err := arbloop.NewScanner(market, prices)
	if err != nil {
		t.Fatal(err)
	}
	fullSc, err := arbloop.NewScanner(market, prices, arbloop.WithDeltaScans(false))
	if err != nil {
		t.Fatal(err)
	}

	w := arbloop.NewWatcher(market)
	ctx := context.Background()
	sawReuse := false
	for round := 0; round < 6; round++ {
		if round > 0 {
			market.trade(t, rng, 1+rng.Intn(6))
		}
		u, err := w.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if round > 0 && u.ChangedPools == nil {
			t.Fatalf("round %d: reserve-only update has no dirty set", round)
		}

		delta, err := deltaSc.ScanDelta(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		full, err := fullSc.ScanDelta(ctx, u) // delta disabled → full scan
		if err != nil {
			t.Fatal(err)
		}
		if full.Report.LoopsReused != 0 {
			t.Fatalf("round %d: WithDeltaScans(false) scanner reused %d loops", round, full.Report.LoopsReused)
		}
		if got, want := normalize(delta.Report), normalize(full.Report); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: delta report differs from full scan\ndelta: %+v\nfull:  %+v", round, got, want)
		}
		if delta.Report.LoopsReused > 0 {
			sawReuse = true
		}
	}
	if !sawReuse {
		t.Error("no round reused any loop — the delta path never engaged")
	}
}

// TestScanDeltaConcurrent exercises concurrent ScanDelta and Watch calls
// on one scanner under the race detector: the delta state must serialize
// internally while reports stay well-formed.
func TestScanDeltaConcurrent(t *testing.T) {
	market, prices := newMutableMarket(t)
	sc, err := arbloop.NewScanner(market, prices)
	if err != nil {
		t.Fatal(err)
	}
	w := arbloop.NewWatcher(market)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	// Two Watch consumers share the scanner (and therefore its delta state).
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for vr := range sc.Watch(ctx, w) {
				if vr.Err == nil && vr.Report.LoopsReoptimized+vr.Report.LoopsReused != vr.Report.LoopsDetected {
					t.Errorf("counters do not partition: %+v", vr.Report)
				}
			}
		}()
	}
	// Two direct ScanDelta callers race the watchers.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				u := w.Latest()
				if u.Version == 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				if _, err := sc.ScanDelta(ctx, u); err != nil && ctx.Err() == nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 10; i++ {
		market.trade(t, rng, 3)
		if _, err := w.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let consumers drain the last update
	w.Close()
	cancel()
	wg.Wait()
}

// TestScanDeltaSurvivesGOMAXPROCSChange: NewScanner resolves the shard
// count and parallelism once, so a GOMAXPROCS change between blocks (a
// cgroup re-tune, testing.AllocsPerRun) must neither re-partition the
// delta baseline nor force a full re-capture.
func TestScanDeltaSurvivesGOMAXPROCSChange(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	market, prices := newMutableMarket(t)
	sc, err := arbloop.NewScanner(market, prices)
	if err != nil {
		t.Fatal(err)
	}
	w := arbloop.NewWatcher(market)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(59))
	for i, p := range []int{procs, 1, 4} {
		runtime.GOMAXPROCS(p)
		if i > 0 {
			market.trade(t, rng, 3)
		}
		u, err := w.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		vr, err := sc.ScanDelta(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && vr.Report.LoopsReused == 0 {
			t.Errorf("GOMAXPROCS %d: scan reused no loops — it re-captured", p)
		}
		if vr.Report.Parallelism != procs {
			t.Errorf("GOMAXPROCS %d: report parallelism %d, want %d resolved at construction", p, vr.Report.Parallelism, procs)
		}
	}
	if s := sc.DeltaStats(); s.FullScans != 1 || s.DeltaScans != 2 || s.Shards != procs {
		t.Errorf("stats = %+v, want 1 full + 2 delta scans over %d shards", s, procs)
	}
}
