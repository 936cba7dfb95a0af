package distrib

import (
	"context"
	"math"
	"testing"

	"arbloop/internal/cex"
	"arbloop/internal/market"
	"arbloop/internal/scan"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
)

// nanStrategy is MaxMax, except that on one loop it returns a NaN profit
// and no error, as a buggy custom strategy might.
type nanStrategy struct{ loop string }

func (nanStrategy) Name() string { return strategy.NameMaxMax }

func (s nanStrategy) Optimize(ctx context.Context, l *strategy.Loop, pm strategy.PriceMap) (strategy.Result, error) {
	r, err := strategy.MaxMaxStrategy{}.Optimize(ctx, l, pm)
	if l.String() == s.loop {
		r.Monetized = math.NaN()
	}
	return r, err
}

// TestNonFiniteLoopFailsScanNotPublish: on the §VI market, a loop whose
// strategy returns a NaN profit is counted in Report.Failed and left out
// of the ranking, so the report still encodes and publishes. A ranked
// NaN made Store.Set reject the whole report.
func TestNonFiniteLoopFailsScanNotPublish(t *testing.T) {
	ctx := context.Background()
	snap, err := market.Generate(market.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	filtered := snap.FilterPools(30_000, 100)
	pools, err := source.FromSnapshot(filtered).Pools(ctx)
	if err != nil {
		t.Fatal(err)
	}
	prices := cex.NewStatic(filtered.PricesUSD)
	clean, err := scan.Run(ctx, pools, prices, scan.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Failed != 0 || len(clean.Results) < 2 {
		t.Fatalf("clean scan: %d failed, %d results", clean.Failed, len(clean.Results))
	}
	bad := clean.Results[0].Loop.String()

	rep, err := scan.Run(ctx, pools, prices, scan.Config{Strategy: nanStrategy{loop: bad}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || len(rep.Results) != len(clean.Results)-1 {
		t.Fatalf("NaN scan: %d failed, %d results; want 1 failed, %d results", rep.Failed, len(rep.Results), len(clean.Results)-1)
	}
	for _, r := range rep.Results {
		if r.Loop.String() == bad {
			t.Fatalf("loop %s with a NaN profit was ranked", bad)
		}
	}
	if _, err := new(Store).Set(Encode(rep, 1, 1)); err != nil {
		t.Fatalf("Store.Set: %v", err)
	}
}
