package scan

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"arbloop/internal/cex"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
)

// panickyStrategy panics on a deterministic fraction of its calls and
// delegates the rest — a buggy custom Strategy plugged into the scanner.
type panickyStrategy struct {
	inner strategy.Strategy
	every int64 // panic on every Nth call (1 = always)
	calls atomic.Int64
}

func (p *panickyStrategy) Name() string { return "Panicky" }
func (p *panickyStrategy) Optimize(ctx context.Context, l *strategy.Loop, pm strategy.PriceMap) (strategy.Result, error) {
	if p.calls.Add(1)%p.every == 0 {
		panic("strategy bug: nil map write")
	}
	return p.inner.Optimize(ctx, l, pm)
}

// A strategy panic must fail its loop — not the scan, and never the
// process. The regression this pins: before containment, one buggy custom
// Strategy crashed the whole service from a pooled worker goroutine.
func TestRunContainsStrategyPanic(t *testing.T) {
	pools, prices := deltaMarket(t)
	m := NewMetrics()
	s := &panickyStrategy{inner: strategy.MaxMaxStrategy{}, every: 3}
	rep, err := Run(context.Background(), pools, cex.NewStatic(prices), Config{
		Strategy: s, Metrics: m, Parallelism: 4,
	})
	if err != nil {
		t.Fatalf("Run: %v (panics must not fail the scan)", err)
	}
	if rep.Failed == 0 {
		t.Fatal("no loop failed despite panicking strategy")
	}
	if len(rep.Results) == 0 {
		t.Fatal("no loop succeeded: containment lost the healthy results")
	}
	if got := m.StrategyPanics.Load(); got != uint64(rep.Failed) {
		t.Fatalf("StrategyPanics = %d, Failed = %d; every failure here is a panic", got, rep.Failed)
	}
}

// Every loop panicking is a systemic failure: surfaced as an error, still
// not a crash.
func TestRunAllPanicsSurfacesError(t *testing.T) {
	s := &panickyStrategy{inner: strategy.MaxMaxStrategy{}, every: 1}
	_, err := Run(context.Background(), paperPools(t), paperPrices(), Config{Strategy: s})
	if err == nil {
		t.Fatal("all-panic scan reported success")
	}
}

// The streaming fan-out path recovers too, delivering the panic as a
// per-loop Err wrapping ErrStrategyPanic.
func TestStreamContainsStrategyPanic(t *testing.T) {
	s := &panickyStrategy{inner: strategy.MaxMaxStrategy{}, every: 1}
	ch := Stream(context.Background(), paperPools(t), paperPrices(), Config{Strategy: s})
	var got []Result
	for r := range ch {
		got = append(got, r)
	}
	if len(got) != 1 {
		t.Fatalf("stream delivered %d results, want 1", len(got))
	}
	if !errors.Is(got[0].Err, ErrStrategyPanic) {
		t.Fatalf("Err = %v, want ErrStrategyPanic", got[0].Err)
	}
}

// The delta path, its capture included, funnels re-optimization through
// the same recovery.
func TestRunDeltaContainsStrategyPanic(t *testing.T) {
	pools, prices := deltaMarket(t)
	src := cex.NewStatic(prices)
	m := NewMetrics()
	s := &panickyStrategy{inner: strategy.MaxMaxStrategy{}, every: 4}
	st := NewDelta(Config{Strategy: s, Metrics: m})
	if _, err := st.Scan(context.Background(), pools, nil, src); err != nil {
		t.Fatalf("capture: %v", err)
	}
	rep, err := st.Scan(context.Background(), rebuild(t, pools), nil, src)
	if err != nil {
		t.Fatalf("delta: %v", err)
	}
	if m.StrategyPanics.Load() == 0 {
		t.Fatal("no panic recovered on the delta path")
	}
	_ = rep
}

// hangingPrices blocks until the caller's context ends — a wedged price
// backend.
type hangingPrices struct{}

func (hangingPrices) Prices(ctx context.Context, _ []string) (map[string]float64, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// StageTimeout bounds the price fetch: a hung backend cancels that scan
// with DeadlineExceeded instead of wedging the pipeline forever.
func TestStageTimeoutCancelsHungPriceFetch(t *testing.T) {
	start := time.Now()
	_, err := Run(context.Background(), paperPools(t), hangingPrices{}, Config{
		StageTimeout: 50 * time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hung fetch took %s to cancel", elapsed)
	}
}

// stalePrices is a FallbackPriceSource that always answers degraded —
// the breaker's serve-stale face.
type stalePrices struct {
	m map[string]float64
}

func (s stalePrices) Prices(ctx context.Context, symbols []string) (map[string]float64, error) {
	return s.m, nil
}
func (s stalePrices) PricesFallback(ctx context.Context, symbols []string) (map[string]float64, bool, error) {
	return s.m, true, nil
}

var _ source.FallbackPriceSource = stalePrices{}

// A degraded price answer must mark the report Degraded on both the full
// and the delta path, and bump the degraded-scan counter.
func TestDegradedPricesMarkReport(t *testing.T) {
	prices := stalePrices{m: map[string]float64{"X": 2, "Y": 10.2, "Z": 20}}
	m := NewMetrics()
	rep, err := Run(context.Background(), paperPools(t), prices, Config{Metrics: m})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("full scan on fallback prices not marked Degraded")
	}
	if m.DegradedScans.Load() != 1 {
		t.Fatalf("DegradedScans = %d, want 1", m.DegradedScans.Load())
	}

	st := NewDelta(Config{})
	if _, err := st.Scan(context.Background(), paperPools(t), nil, prices); err != nil {
		t.Fatalf("capture: %v", err)
	}
	rep2, err := st.Scan(context.Background(), paperPools(t), nil, prices)
	if err != nil {
		t.Fatalf("delta: %v", err)
	}
	if !rep2.Degraded {
		t.Fatal("delta scan on fallback prices not marked Degraded")
	}
}

// Fresh prices leave Degraded false — the common case stays clean.
func TestFreshPricesNotDegraded(t *testing.T) {
	rep, err := Run(context.Background(), paperPools(t), paperPrices(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Fatal("fresh scan marked Degraded")
	}
}
