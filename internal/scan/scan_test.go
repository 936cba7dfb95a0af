package scan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"arbloop/internal/amm"
	"arbloop/internal/cex"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
)

// paperPools builds the Section V three-pool market.
func paperPools(t *testing.T) []*amm.Pool {
	t.Helper()
	specs := []struct {
		id, t0, t1 string
		r0, r1     float64
	}{
		{"p1", "X", "Y", 100, 200},
		{"p2", "Y", "Z", 300, 200},
		{"p3", "Z", "X", 200, 400},
	}
	pools := make([]*amm.Pool, len(specs))
	for i, s := range specs {
		p, err := amm.NewPool(s.id, s.t0, s.t1, s.r0, s.r1, amm.DefaultFee)
		if err != nil {
			t.Fatal(err)
		}
		pools[i] = p
	}
	return pools
}

func paperPrices() source.PriceSource {
	return cex.NewStatic(map[string]float64{"X": 2, "Y": 10.2, "Z": 20})
}

func TestRunPaperExample(t *testing.T) {
	report, err := Run(context.Background(), paperPools(t), paperPrices(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if report.LoopsDetected != 1 || len(report.Results) != 1 {
		t.Fatalf("report = %+v", report)
	}
	r := report.Results[0]
	if r.Result.StartToken != "Z" || r.Result.Monetized < 200 {
		t.Errorf("result = %q $%.2f, paper Z ≈ $205.6", r.Result.StartToken, r.Result.Monetized)
	}
	if report.Strategy != strategy.NameMaxMax {
		t.Errorf("default strategy = %q", report.Strategy)
	}
}

func TestRunNoPools(t *testing.T) {
	if _, err := Run(context.Background(), nil, paperPrices(), Config{}); err == nil {
		t.Error("empty pool set accepted")
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, paperPools(t), paperPrices(), Config{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// failingPrices fails every fetch, simulating a dead upstream.
type failingPrices struct{}

func (failingPrices) Prices(context.Context, []string) (map[string]float64, error) {
	return nil, errors.New("upstream down")
}

func TestRunPriceFailure(t *testing.T) {
	if _, err := Run(context.Background(), paperPools(t), failingPrices{}, Config{}); err == nil {
		t.Error("price-source failure not surfaced")
	}
}

func TestStreamDetectionErrorArrivesOnChannel(t *testing.T) {
	ch := Stream(context.Background(), paperPools(t), failingPrices{}, Config{})
	var got []Result
	for r := range ch {
		got = append(got, r)
	}
	if len(got) != 1 || got[0].Err == nil || got[0].Loop != nil {
		t.Errorf("stream results = %+v", got)
	}
}

// failingStrategy errors on every loop: the batch path must surface the
// error instead of returning a silently empty report.
type failingStrategy struct{}

func (failingStrategy) Name() string { return "Failing" }
func (failingStrategy) Optimize(context.Context, *strategy.Loop, strategy.PriceMap) (strategy.Result, error) {
	return strategy.Result{}, errors.New("solver exploded")
}

func TestRunAllLoopsFailing(t *testing.T) {
	_, err := Run(context.Background(), paperPools(t), paperPrices(), Config{Strategy: failingStrategy{}})
	if err == nil {
		t.Error("systemic per-loop failure not surfaced")
	}
}

// peakStrategy runs MaxMax and records the most Optimize calls in
// flight at once. Until want calls are in flight together, each call
// waits for its peers, for at most peerWait: a fan-out that runs fewer
// workers than it should then fails in bounded time instead of hanging,
// and once one wait has timed out no later call waits.
type peakStrategy struct {
	want     int
	met      chan struct{}
	metOnce  sync.Once
	mu       sync.Mutex
	inFlight int
	peak     int
}

const peerWait = 5 * time.Second

func (p *peakStrategy) Name() string { return "Peak" }

func (p *peakStrategy) Optimize(ctx context.Context, l *strategy.Loop, pm strategy.PriceMap) (strategy.Result, error) {
	p.mu.Lock()
	p.inFlight++
	p.peak = max(p.peak, p.inFlight)
	if p.inFlight >= p.want {
		p.metOnce.Do(func() { close(p.met) })
	}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.inFlight--
		p.mu.Unlock()
	}()
	select {
	case <-p.met:
	case <-time.After(peerWait):
		p.metOnce.Do(func() { close(p.met) })
	}
	return strategy.MaxMaxStrategy{}.Optimize(ctx, l, pm)
}

// TestFanOutPeaksAtParallelism checks that a full scan optimizes exactly
// min(parallelism, loops) loops at once, through Run and through Stream,
// at any GOMAXPROCS. On a small host a wall-clock speedup cannot show
// that the fan-out runs; a count of calls in flight can.
func TestFanOutPeaksAtParallelism(t *testing.T) {
	ctx := context.Background()
	pools, fetched := deltaMarket(t)
	prices := cex.NewStatic(fetched)
	rep, err := Run(ctx, pools, prices, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	loops := rep.LoopsDetected
	if loops < 4 {
		t.Fatalf("%d loops detected, want at least 4", loops)
	}
	for _, p := range []int{1, 2, 4} {
		for _, path := range []string{"Run", "Stream"} {
			t.Run(fmt.Sprintf("%s/parallelism%d", path, p), func(t *testing.T) {
				want := min(p, loops)
				s := &peakStrategy{want: want, met: make(chan struct{})}
				cfg := Config{Strategy: s, Parallelism: p}
				if path == "Run" {
					if _, err := Run(ctx, pools, prices, cfg); err != nil {
						t.Fatal(err)
					}
				} else {
					for r := range Stream(ctx, pools, prices, cfg) {
						if r.Err != nil {
							t.Fatal(r.Err)
						}
					}
				}
				if s.peak != want {
					t.Errorf("%d Optimize calls in flight at most, want %d", s.peak, want)
				}
			})
		}
	}
}
