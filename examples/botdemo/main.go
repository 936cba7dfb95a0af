// Botdemo runs the block-driven arbitrage engine against the calibrated
// synthetic market in two regimes:
//
//  1. a quiet market — the bot consumes the initial mispricings and
//     per-block profit decays to zero (no-arbitrage convergence);
//  2. a live market — random retail flow keeps re-mispricing pools and
//     the bot's extraction reaches a steady state.
//
// Every execution is an atomic flash-loan transaction: stale plans revert
// instead of losing money.
package main

import (
	"context"
	"fmt"
	"log"
	"math/big"
	"math/rand"

	"arbloop"
	"arbloop/internal/bot"
	"arbloop/internal/cex"
	"arbloop/internal/chain"
	"arbloop/internal/source"
)

const scale = 1_000_000

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func buildChain() (*chain.State, map[string]float64, error) {
	snap, err := arbloop.GenerateMarket(arbloop.DefaultGeneratorConfig())
	if err != nil {
		return nil, nil, err
	}
	filtered := snap.FilterPools(30_000, 100)
	state := chain.NewState(1_693_526_400)
	if err := source.MirrorToChain(state, filtered, scale); err != nil {
		return nil, nil, err
	}
	return state, filtered.PricesUSD, nil
}

func run() error {
	ctx := context.Background()

	// Regime 1: quiet market.
	state, prices, err := buildChain()
	if err != nil {
		return err
	}
	engine, err := bot.New(state, cex.NewStatic(prices), bot.Config{
		Strategy:              arbloop.MaxMaxStrategy{},
		MaxExecutionsPerBlock: 3,
		MinProfitUSD:          0.05,
	})
	if err != nil {
		return err
	}
	fmt.Println("regime 1: quiet market (profit decays to zero)")
	for i := 0; i < 8; i++ {
		report, err := engine.Step(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("  block %2d: %3d loops, realized $%8.2f\n",
			report.Height, report.LoopsDetected, report.TotalRealizedUSD())
	}
	st := engine.Stats()
	fmt.Printf("  totals: %d executions, %d skipped/reverted, $%.2f realized\n\n",
		st.Executed, st.Reverted, st.RealizedUSD)

	// Regime 2: live market with retail flow.
	state2, prices2, err := buildChain()
	if err != nil {
		return err
	}
	engine2, err := bot.New(state2, cex.NewStatic(prices2), bot.Config{
		MaxExecutionsPerBlock: 3,
		MinProfitUSD:          0.05,
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(7))
	ids := state2.PoolIDs()
	fmt.Println("regime 2: live market (retail flow keeps re-mispricing pools)")
	for i := 0; i < 8; i++ {
		// 12 random retail swaps of 1% of the input reserve per block.
		for j := 0; j < 12; j++ {
			id := ids[rng.Intn(len(ids))]
			t0, t1, err := state2.PoolTokens(id)
			if err != nil {
				return err
			}
			tokenIn := t0
			if rng.Intn(2) == 1 {
				tokenIn = t1
			}
			r0, r1, err := state2.Reserves(id)
			if err != nil {
				return err
			}
			rin := r0
			if tokenIn == t1 {
				rin = r1
			}
			amt := new(big.Int).Quo(rin, big.NewInt(100))
			if amt.Sign() <= 0 {
				continue
			}
			if _, err := state2.Swap(id, tokenIn, amt); err != nil {
				return err
			}
		}
		report, err := engine2.Step(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("  block %2d: %3d loops, realized $%8.2f\n",
			report.Height, report.LoopsDetected, report.TotalRealizedUSD())
	}
	st2 := engine2.Stats()
	fmt.Printf("  totals: %d executions, %d skipped/reverted, $%.2f realized\n",
		st2.Executed, st2.Reverted, st2.RealizedUSD)
	return nil
}
