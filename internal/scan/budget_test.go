package scan

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"arbloop/internal/amm"
	"arbloop/internal/cex"
	"arbloop/internal/strategy"
)

// deltaScanCost returns the heap bytes and the allocations one dirty
// delta scan makes (runtime.MemStats TotalAlloc and Mallocs), averaged
// over scans blocks in which swaps pools trade. Every block's pool state
// is built before the measured window, so the harness's own pool
// rebuilds are not counted.
func deltaScanCost(t *testing.T, cfg Config, swaps, scans int) (bytes, allocs float64) {
	t.Helper()
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()
	const warm = 5
	rng := rand.New(rand.NewSource(31))
	states := make([][]*amm.Pool, warm+scans)
	state := pools
	for i := range states {
		state = perturb(t, rng, state, swaps)
		states[i] = state
	}

	st := NewDelta(cfg)
	scan := func(pools []*amm.Pool) {
		rep, err := st.Scan(ctx, pools, nil, src)
		if err != nil {
			t.Fatal(err)
		}
		if rep.LoopsReoptimized == 0 || rep.LoopsReused == 0 {
			t.Fatalf("scan re-optimized %d and reused %d loops: not a dirty delta scan",
				rep.LoopsReoptimized, rep.LoopsReused)
		}
	}
	if _, err := st.Scan(ctx, pools, nil, src); err != nil { // capture
		t.Fatal(err)
	}
	for _, s := range states[:warm] {
		scan(s)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range states[warm:] {
		scan(s)
	}
	runtime.ReadMemStats(&after)
	if s := st.Stats(); s.FullScans != 1 {
		t.Fatalf("stats = %+v, want one capture and delta scans only", s)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(scans),
		float64(after.Mallocs-before.Mallocs) / float64(scans)
}

// dirtyScanBudgets are the dirty delta scan's budgets on the two
// perfbench shapes, TopK 20 each.
var dirtyScanBudgets = []struct {
	name   string
	cfg    Config
	swaps  int
	bytes  float64 // per scan
	allocs float64 // per scan
}{
	{"convex-len4", Config{Strategy: strategy.ConvexStrategy{}, MinLen: 4, MaxLen: 4, TopK: 20}, 10, 10 << 10, 40},
	{"maxmax-len3", Config{Strategy: strategy.MaxMaxStrategy{}, TopK: 20}, 4, 15 << 9, 24},
}

// TestDeltaDirtyScanByteBudget pins the bytes a dirty delta scan
// allocates. A re-optimized loop is computed on indices and gets a Loop
// and a Result only when the report keeps it; the committed state,
// reserves included, is copied into the state the previous commit
// retired, not into a fresh one; ranking copies out only the TopK
// results it keeps. The scans read 8.2 kB and 6.5 kB (2-CPU Xeon, Go
// 1.24, GOMAXPROCS 1 to 4, with or without -race). Each budget sits
// below what the scan reads when any of those comes back: a fresh
// reserves slice per commit reads 11.5 kB and 9.9 kB, a Loop per
// re-optimized loop 48 kB and 8.3 kB, a Loop and a Result per
// re-optimized loop 140 kB and 13 kB, and a fresh copy of the state
// 101 kB and 22 kB.
func TestDeltaDirtyScanByteBudget(t *testing.T) {
	for _, tc := range dirtyScanBudgets {
		t.Run(tc.name, func(t *testing.T) {
			got, _ := deltaScanCost(t, tc.cfg, tc.swaps, 40)
			t.Logf("%s: %.1f kB per dirty delta scan (budget %.1f kB)", tc.name, got/1024, tc.bytes/1024)
			if got > tc.bytes {
				t.Errorf("dirty delta scan allocates %.1f kB, budget %.1f kB", got/1024, tc.bytes/1024)
			}
		})
	}
}

// TestDeltaDirtyScanAllocBudget pins the allocations of the same dirty
// delta scans: a fixed handful per scan plus the served forms of the
// kept loops that re-optimized, nothing per re-optimized loop. The scans
// make 33.4 and 18.5 (GOMAXPROCS 1 to 4). A Loop per re-optimized loop
// reads 623 and 51, and a Loop and a Result per re-optimized loop 1,185
// and 70.
func TestDeltaDirtyScanAllocBudget(t *testing.T) {
	for _, tc := range dirtyScanBudgets {
		t.Run(tc.name, func(t *testing.T) {
			_, got := deltaScanCost(t, tc.cfg, tc.swaps, 40)
			t.Logf("%s: %.1f allocations per dirty delta scan (budget %.0f)", tc.name, got, tc.allocs)
			if got > tc.allocs {
				t.Errorf("dirty delta scan makes %.1f allocations, budget %.0f", got, tc.allocs)
			}
		})
	}
}

// failLoop wraps a strategy and fails one loop, named by its pools in
// hop order, on every call — a loop whose strategy persistently errors.
type failLoop struct {
	inner strategy.Strategy
	pools []string
}

var errLoopFails = errors.New("loop always fails")

func (f failLoop) Name() string { return f.inner.Name() }

func (f failLoop) Optimize(ctx context.Context, l *strategy.Loop, pm strategy.PriceMap) (strategy.Result, error) {
	if l.Len() == len(f.pools) {
		match := true
		for i, id := range f.pools {
			if l.Hop(i).Pool.ID != id {
				match = false
				break
			}
		}
		if match {
			return strategy.Result{}, errLoopFails
		}
	}
	return f.inner.Optimize(ctx, l, pm)
}

// TestDeltaFailedLoopCostsNoAllocs: a loop that failed at capture is
// reused, error and all, by every clean delta scan after it. The scan
// formats an error only when every loop failed, so one persistently
// failing loop must leave the clean scan on the same 7-allocation budget
// as a healthy market.
func TestDeltaFailedLoopCostsNoAllocs(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	ctx := context.Background()
	healthy, err := Run(ctx, pools, src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var victim []string
	for i := 0; i < healthy.Results[0].Loop.Len(); i++ {
		victim = append(victim, healthy.Results[0].Loop.Hop(i).Pool.ID)
	}

	for _, tc := range []struct {
		name   string
		s      strategy.Strategy
		failed int
	}{
		{"healthy", strategy.MaxMaxStrategy{}, 0},
		{"one loop failing", failLoop{inner: strategy.MaxMaxStrategy{}, pools: victim}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewDelta(Config{Strategy: tc.s, Parallelism: 1, Metrics: NewMetrics()})
			state := rebuild(t, pools)
			if _, err := st.Scan(ctx, state, nil, src); err != nil {
				t.Fatal(err)
			}
			var rep Report
			allocs := testing.AllocsPerRun(20, func() {
				var err error
				if rep, err = st.Scan(ctx, state, nil, src); err != nil {
					t.Fatal(err)
				}
			})
			if rep.Failed != tc.failed {
				t.Fatalf("Failed = %d, want %d", rep.Failed, tc.failed)
			}
			if rep.LoopsReoptimized != 0 {
				t.Fatalf("clean scan re-optimized %d loops", rep.LoopsReoptimized)
			}
			const budget = 7
			t.Logf("clean delta scan, %s: %.1f allocs", tc.name, allocs)
			if allocs > budget {
				t.Errorf("clean delta scan with %d failed loop(s) allocates %.1f, budget %d", tc.failed, allocs, budget)
			}
		})
	}
}
