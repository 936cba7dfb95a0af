// Package source defines the data-source contracts the scanner consumes —
// where pools come from and where CEX prices come from — and adapters that
// put the library's three native backends (market snapshots, the chain
// simulator, and cex oracles) behind them. New backends (an RPC archive
// node, a pool-cache service, a websocket price feed) plug in by
// implementing one small interface instead of forking the pipeline.
package source

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"sync"

	"arbloop/internal/amm"
	"arbloop/internal/cex"
	"arbloop/internal/chain"
	"arbloop/internal/market"
)

// PoolSource supplies the current set of liquidity pools. Implementations
// must be safe for concurrent use; each call returns a fresh slice
// holding one point-in-time view. The returned pools are immutable —
// nothing downstream mutates them — so a source may hand back the same
// *amm.Pool pointers across calls for pools that did not change.
type PoolSource interface {
	// Pools returns analytic constant-product pools for the current state.
	Pools(ctx context.Context) ([]*amm.Pool, error)
}

// PriceSource supplies USD prices for token symbols. cex.Oracle satisfies
// it directly, as does the TTL-caching HTTP client.
type PriceSource interface {
	// Prices returns USD prices for all requested symbols; it fails if any
	// symbol is unknown. The symbols slice is borrowed: implementations
	// must not retain or mutate it after returning (the scan engine's
	// per-block path reuses the backing array across scans) — copy it if
	// it must outlive the call.
	Prices(ctx context.Context, symbols []string) (map[string]float64, error)
}

// Every cex oracle is a PriceSource.
var (
	_ PriceSource = (cex.Oracle)(nil)
	_ PriceSource = (*cex.Static)(nil)
	_ PriceSource = (*cex.Client)(nil)
)

// SnapshotSource adapts a market.Snapshot to both PoolSource and
// PriceSource. The snapshot is read-only after construction, so the
// adapter is safe for concurrent use.
type SnapshotSource struct {
	snap *market.Snapshot
}

var (
	_ PoolSource  = (*SnapshotSource)(nil)
	_ PriceSource = (*SnapshotSource)(nil)
)

// FromSnapshot wraps a snapshot as a pool + price source.
func FromSnapshot(s *market.Snapshot) *SnapshotSource {
	return &SnapshotSource{snap: s}
}

// Pools implements PoolSource.
func (s *SnapshotSource) Pools(ctx context.Context) ([]*amm.Pool, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pools := make([]*amm.Pool, 0, len(s.snap.Pools))
	for _, p := range s.snap.Pools {
		pool, err := amm.NewPool(p.ID, p.Token0, p.Token1, p.Reserve0, p.Reserve1, p.Fee)
		if err != nil {
			return nil, fmt.Errorf("source: pool %s: %w", p.ID, err)
		}
		pools = append(pools, pool)
	}
	return pools, nil
}

// Prices implements PriceSource against the snapshot's CEX price table.
func (s *SnapshotSource) Prices(ctx context.Context, symbols []string) (map[string]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(symbols))
	for _, sym := range symbols {
		p, ok := s.snap.PricesUSD[sym]
		if !ok {
			return nil, fmt.Errorf("%w: %q", cex.ErrUnknownSymbol, sym)
		}
		out[sym] = p
	}
	return out, nil
}

// ChainSource adapts the integer chain simulator to PoolSource, converting
// big.Int reserves into whole-token float64 pools at a fixed scale. Each
// Pools call reads the whole state under one read lock
// (chain.State.VisitPools), so it sees one consistent block: a committed
// multi-pool transaction is either in every pool of the view or in none.
// Conversions are reused by revision: a pool whose chain revision has not
// changed since the previous call is handed back as the same immutable
// *amm.Pool, so a block costs one conversion per pool it moved. Safe for
// concurrent use; calls are serialized.
type ChainSource struct {
	state *chain.State
	scale float64

	// mu guards last, the previous call's conversions in ID order, and
	// next, the buffer the current call fills before they swap.
	mu         sync.Mutex
	last, next []converted
}

// converted is one pool's conversion, valid while its revision holds.
type converted struct {
	rev  uint64
	pool *amm.Pool
}

var _ PoolSource = (*ChainSource)(nil)

// FromChain wraps a chain state as a pool source. scale is the integer
// base units per whole token (must match how the state was populated).
func FromChain(state *chain.State, scale int64) *ChainSource {
	if scale <= 0 {
		scale = 1_000_000
	}
	return &ChainSource{state: state, scale: float64(scale)}
}

// Pools implements PoolSource.
func (c *ChainSource) Pools(ctx context.Context) ([]*amm.Pool, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pools := make([]*amm.Pool, 0, len(c.last))
	next, j := c.next[:0], 0
	err := c.state.VisitPools(func(v chain.PoolView) error {
		// Both lists are in ID order, so one cursor finds the previous
		// conversion of each pool; pools added since then have none.
		for j < len(c.last) && c.last[j].pool.ID < v.ID {
			j++
		}
		var p *amm.Pool
		if j < len(c.last) && c.last[j].pool.ID == v.ID && c.last[j].rev == v.Revision {
			p = c.last[j].pool
		} else {
			var err error
			if p, err = c.convert(v); err != nil {
				return err
			}
		}
		next = append(next, converted{rev: v.Revision, pool: p})
		pools = append(pools, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.last, c.next = next, c.last
	return pools, nil
}

// convert builds the analytic pool of one chain pool. Each reserve goes
// through an exact big.Float, so the float64 is the integer rounded once
// to nearest, at any magnitude.
func (c *ChainSource) convert(v chain.PoolView) (*amm.Pool, error) {
	f0, _ := new(big.Float).SetInt(v.Reserve0).Float64()
	f1, _ := new(big.Float).SetInt(v.Reserve1).Float64()
	pool, err := amm.NewPool(v.ID, v.Token0, v.Token1, f0/c.scale, f1/c.scale, float64(v.FeeBps)/amm.FeeDenominator)
	if err != nil {
		return nil, fmt.Errorf("source: pool %s: %w", v.ID, err)
	}
	return pool, nil
}

// MirrorToChain registers every pool of a snapshot on a chain state,
// scaling reserves to integer base units and converting each pool's fee
// to basis points — the one way snapshots become simulator markets, so
// fees are never silently rewritten at the boundary. scale must match
// the FromChain adapter reading the state back (≤ 0 selects the 1e6
// default). Reserves are rounded to the nearest base unit in arbitrary
// precision, so no reserve×scale product can truncate or overflow into a
// wrong (formerly even negative) on-chain reserve; a non-finite reserve
// is an explicit error.
func MirrorToChain(state *chain.State, snap *market.Snapshot, scale int64) error {
	if scale <= 0 {
		scale = 1_000_000
	}
	for _, p := range snap.Pools {
		r0, err := reserveToBase(p.Reserve0, scale)
		if err != nil {
			return fmt.Errorf("source: mirror pool %s reserve0: %w", p.ID, err)
		}
		r1, err := reserveToBase(p.Reserve1, scale)
		if err != nil {
			return fmt.Errorf("source: mirror pool %s reserve1: %w", p.ID, err)
		}
		// int64(NaN) and int64(±Inf) are implementation-defined in Go, so a
		// non-finite fee must be rejected before the bps conversion, not
		// discovered as a garbage feeBps downstream.
		if math.IsNaN(p.Fee) || math.IsInf(p.Fee, 0) || p.Fee < 0 || p.Fee >= 1 {
			return fmt.Errorf("source: mirror pool %s: %w: got %g", p.ID, amm.ErrInvalidFee, p.Fee)
		}
		feeBps := int64(math.Round(p.Fee * amm.FeeDenominator))
		if err := state.AddPool(p.ID, p.Token0, p.Token1, r0, r1, feeBps); err != nil {
			return fmt.Errorf("source: mirror pool %s: %w", p.ID, err)
		}
	}
	return nil
}

// reserveToBase converts a whole-token reserve to integer base units,
// rounding half-up via big.Float so the product is exact at any
// magnitude. The old int64(v*scale) conversion truncated toward zero and
// silently overflowed past ~9.2e18 base units.
func reserveToBase(v float64, scale int64) (*big.Int, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("source: reserve %g is not finite", v)
	}
	if v <= 0 {
		return nil, fmt.Errorf("source: reserve %g must be positive", v)
	}
	// 128-bit precision keeps the 53-bit mantissa × 63-bit scale product
	// exact; the default SetFloat64 precision (53) would round large
	// products back to float64 granularity.
	f := new(big.Float).SetPrec(128).SetFloat64(v)
	f.Mul(f, new(big.Float).SetPrec(128).SetInt64(scale))
	f.Add(f, big.NewFloat(0.5))
	out, _ := f.Int(nil) // truncation after +0.5 = round half-up
	if out.Sign() <= 0 {
		return nil, fmt.Errorf("source: reserve %g rounds to zero at scale %d", v, scale)
	}
	return out, nil
}

// StaticPools is a fixed pool list satisfying PoolSource — the adapter for
// hand-built loops in tests and examples.
type StaticPools []*amm.Pool

var _ PoolSource = StaticPools(nil)

// Pools implements PoolSource.
func (s StaticPools) Pools(ctx context.Context) ([]*amm.Pool, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]*amm.Pool, len(s))
	copy(out, s)
	return out, nil
}
