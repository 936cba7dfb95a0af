package scan

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"arbloop/internal/amm"
	"arbloop/internal/cex"
	"arbloop/internal/strategy"
)

// BenchmarkScanDeltaConvexLen4 times one dirty delta scan on
// TestDeltaDirtyScanByteBudget's Convex fixture: the §VI market at loop
// length 4, parallelism 1, 10 pools trading per scan. The
// states are built before the timer starts and walked forward and back
// along one random path, so every scan sees exactly one step's 10 moved
// pools. top20 serves what serve serves; top0 serves every ranked loop,
// as internal/bot and serve -top 0 do.
func BenchmarkScanDeltaConvexLen4(b *testing.B) {
	for _, topK := range []int{20, 0} {
		b.Run(fmt.Sprintf("top%d", topK), func(b *testing.B) {
			pools, prices := deltaMarket(b)
			src := cex.NewStatic(prices)
			ctx := context.Background()
			rng := rand.New(rand.NewSource(31))
			path := make([][]*amm.Pool, 64)
			state := Canonicalize(pools)
			for i := range path {
				state = perturb(b, rng, state, 10)
				path[i] = state
			}
			st := NewDelta(Config{Strategy: strategy.ConvexStrategy{}, MinLen: 4, MaxLen: 4,
				Parallelism: 1, TopK: topK})
			if _, err := st.Scan(ctx, path[0], nil, src); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			step := 1
			for i, k := 0, 0; i < b.N; i++ {
				if k+step < 0 || k+step >= len(path) {
					step = -step
				}
				k += step
				rep, err := st.Scan(ctx, path[k], nil, src)
				if err != nil {
					b.Fatal(err)
				}
				if rep.LoopsReoptimized == 0 {
					b.Fatal("scan re-optimized nothing: not a dirty delta scan")
				}
			}
		})
	}
}
