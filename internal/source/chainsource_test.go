package source

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"arbloop/internal/amm"
	"arbloop/internal/chain"
)

// referencePools is ChainSource's original conversion, kept as the
// oracle: list the IDs, then read each pool's tokens, reserves and fee
// through the per-field accessors and convert every pool afresh.
func referencePools(state *chain.State, scale float64) ([]*amm.Pool, error) {
	ids := state.PoolIDs()
	pools := make([]*amm.Pool, 0, len(ids))
	for _, id := range ids {
		t0, t1, err := state.PoolTokens(id)
		if err != nil {
			return nil, err
		}
		r0, r1, err := state.Reserves(id)
		if err != nil {
			return nil, err
		}
		feeBps, err := state.PoolFee(id)
		if err != nil {
			return nil, err
		}
		f0, _ := new(big.Float).SetInt(r0).Float64()
		f1, _ := new(big.Float).SetInt(r1).Float64()
		pool, err := amm.NewPool(id, t0, t1, f0/scale, f1/scale, float64(feeBps)/amm.FeeDenominator)
		if err != nil {
			return nil, fmt.Errorf("source: pool %s: %w", id, err)
		}
		pools = append(pools, pool)
	}
	return pools, nil
}

// samePoolBits compares two pools field by field, floats by bit pattern.
func samePoolBits(a, b *amm.Pool) bool {
	return a.ID == b.ID && a.Token0 == b.Token0 && a.Token1 == b.Token1 &&
		math.Float64bits(a.Reserve0) == math.Float64bits(b.Reserve0) &&
		math.Float64bits(a.Reserve1) == math.Float64bits(b.Reserve1) &&
		math.Float64bits(a.Fee) == math.Float64bits(b.Fee)
}

// TestChainSourceViewIsOneBlock checks that one Pools call never mixes
// states: pools A and B both quote X/Y at different prices, and a writer
// keeps committing the flash-loan arbitrage X→Y on A, Y→X on B, which
// moves Y from A to B and so conserves A.Y + B.Y. A view taken between
// the transaction's two pools would show a sum the chain never held.
// Reserves stay below 2^53 at scale 1, so the float sum is exact.
func TestChainSourceViewIsOneBlock(t *testing.T) {
	const reads = 50_000
	state := chain.NewState(0)
	for _, p := range []struct {
		id     string
		r0, r1 int64
	}{{"A", 1e12, 3e12}, {"B", 3e12, 1e12}} {
		if err := state.AddPool(p.id, "X", "Y", big.NewInt(p.r0), big.NewInt(p.r1), 30); err != nil {
			t.Fatal(err)
		}
	}
	const sumY = 4e12
	src := FromChain(state, 1)
	ctx := context.Background()

	stop, stopped := make(chan struct{}), make(chan struct{})
	var commits atomic.Int64
	go func() {
		defer close(stopped)
		tx := chain.Tx{Borrow: "X", Amount: big.NewInt(10_000), Steps: []chain.SwapStep{
			{PairID: "A", TokenIn: "X"},
			{PairID: "B", TokenIn: "Y"},
		}}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if state.ExecuteTx(tx).OK {
				commits.Add(1)
			}
		}
	}()
	defer func() {
		close(stop)
		<-stopped
	}()

	// At GOMAXPROCS 1 the reads can finish inside one scheduler slice,
	// before the writer runs at all. So reading starts only once the
	// writer has committed, and goes on past reads, yielding, until a
	// transaction has committed since the first read.
	deadline := time.Now().Add(10 * time.Second)
	for commits.Load() == 0 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	first := commits.Load()
	for i := 0; i < reads || (commits.Load() == first && time.Now().Before(deadline)); i++ {
		if i >= reads {
			runtime.Gosched()
		}
		pools, err := src.Pools(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if sum := pools[0].Reserve1 + pools[1].Reserve1; sum != sumY {
			t.Fatalf("read %d: A.Y + B.Y = %.0f, want %.0f: the view straddles a committed transaction", i, sum, float64(sumY))
		}
	}
	if commits.Load() == first {
		t.Fatal("no transaction committed during the reads")
	}
}

// TestChainSourceMatchesReference runs random sequences of swaps,
// committed and reverted transactions, blocks and pool additions, and
// after each step checks the source against referencePools bit for bit.
// A pool no committed operation touched since the previous call must come
// back as the previous call's pointer; a touched or new pool must be a
// new one.
func TestChainSourceMatchesReference(t *testing.T) {
	const (
		steps = 3000
		scale = 1_000_000
	)
	rng := rand.New(rand.NewSource(1))
	tokens := []string{"A", "B", "C", "D", "E"}
	fees := []int64{0, 5, 30, 100}
	state := chain.NewState(0)
	src := FromChain(state, scale)
	ctx := context.Background()

	var ids []string // every pool ever added
	reserve := func() *big.Int {
		if rng.Intn(50) == 0 { // past int64 and float64's exact range
			return new(big.Int).Mul(big.NewInt(rng.Int63n(1e12)+1), big.NewInt(1e13))
		}
		return big.NewInt(rng.Int63n(1e15) + 1e9)
	}
	addPool := func() {
		i := rng.Intn(len(tokens))
		j := (i + 1 + rng.Intn(len(tokens)-1)) % len(tokens)
		id := fmt.Sprintf("pool-%04d", rng.Intn(10_000))
		if err := state.AddPool(id, tokens[i], tokens[j], reserve(), reserve(), fees[rng.Intn(len(fees))]); err == nil {
			ids = append(ids, id)
		}
	}
	for len(ids) < 8 {
		addPool()
	}
	// tx routes a slice of one random pool's token0 through two hops; it
	// commits only when the second pool pays back more than the loan.
	// Half the time the second pool is drawn from those trading the same
	// pair, the rest of the time from all pools (mostly malformed).
	tx := func() (chain.Tx, []string) {
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		t0, t1, _ := state.PoolTokens(a)
		if rng.Intn(2) == 0 {
			var pair []string
			for _, id := range ids {
				if u0, u1, _ := state.PoolTokens(id); id != a && (u0 == t0 && u1 == t1 || u0 == t1 && u1 == t0) {
					pair = append(pair, id)
				}
			}
			if len(pair) > 0 {
				b = pair[rng.Intn(len(pair))]
			}
		}
		r0, _, _ := state.Reserves(a)
		amount := new(big.Int).Div(r0, big.NewInt(int64(100+rng.Intn(10_000))))
		return chain.Tx{Borrow: t0, Amount: amount, Steps: []chain.SwapStep{
			{PairID: a, TokenIn: t0},
			{PairID: b, TokenIn: t1},
		}}, []string{a, b}
	}

	touched := map[string]bool{}
	var commits, reverts, reuses, rebuilds int
	var prev []*amm.Pool
	for step := 0; step < steps; step++ {
		for k := rng.Intn(4); k >= 0; k-- {
			switch r := rng.Intn(40); {
			case r == 0:
				addPool()
			case r < 20:
				id := ids[rng.Intn(len(ids))]
				t0, t1, _ := state.PoolTokens(id)
				if rng.Intn(2) == 1 {
					t0 = t1
				}
				if _, err := state.Swap(id, t0, big.NewInt(rng.Int63n(1e12)+1)); err == nil {
					touched[id] = true
				}
			case r < 34:
				t, pair := tx()
				if state.ExecuteTx(t).OK {
					commits++
					touched[pair[0]], touched[pair[1]] = true, true
				} else {
					reverts++
				}
			default:
				t1, pair1 := tx()
				t2, pair2 := tx()
				for i, rc := range state.Block([]chain.Tx{t1, t2}) {
					pair := [][]string{pair1, pair2}[i]
					if rc.OK {
						commits++
						touched[pair[0]], touched[pair[1]] = true, true
					} else {
						reverts++
					}
				}
			}
		}

		got, err := src.Pools(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referencePools(state, scale)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: %d pools, reference %d", step, len(got), len(want))
		}
		if len(prev) > 0 && &got[0] == &prev[0] {
			t.Fatalf("step %d: Pools returned the previous call's slice", step)
		}
		byID := make(map[string]*amm.Pool, len(prev))
		for _, p := range prev {
			byID[p.ID] = p
		}
		for i, p := range got {
			if !samePoolBits(p, want[i]) {
				t.Fatalf("step %d: pool %d = %+v, reference %+v", step, i, *p, *want[i])
			}
			old, seen := byID[p.ID]
			switch {
			case seen && !touched[p.ID]:
				if p != old {
					t.Fatalf("step %d: unmoved pool %s was converted again", step, p.ID)
				}
				reuses++
			case p == old:
				t.Fatalf("step %d: moved pool %s kept its previous pointer", step, p.ID)
			default:
				rebuilds++
			}
		}
		prev = got
		clear(touched)
	}
	t.Logf("%d steps, %d pools: %d commits, %d reverts, %d reuses, %d rebuilds",
		steps, len(prev), commits, reverts, reuses, rebuilds)
	if commits == 0 || reverts == 0 || reuses == 0 || rebuilds == 0 {
		t.Fatalf("sequence missed a case: %d commits, %d reverts, %d reuses, %d rebuilds", commits, reverts, reuses, rebuilds)
	}
}
