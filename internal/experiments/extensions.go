package experiments

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"

	"arbloop/internal/amm"
	"arbloop/internal/bot"
	"arbloop/internal/cex"
	"arbloop/internal/chain"
	"arbloop/internal/market"
	"arbloop/internal/source"
	"arbloop/internal/stats"
	"arbloop/internal/strategy"
)

// This file holds the extension experiments beyond the paper's published
// evaluation (EXPERIMENTS.md "Extensions"):
//
//	ExtGap      — empirical characterization of the Convex − MaxMax gap,
//	              the open problem the paper's §VII poses ("we didn't give
//	              the discrepancy between these two kinds of strategies in
//	              theory").
//	ExtRisky    — the §IV relaxation the paper declines to evaluate:
//	              profit with shorting allowed vs the risk-free problem (8).
//	ExtBotDecay — market convergence: a block-driven bot arbitrages the
//	              calibrated market toward consistency; realized profit
//	              decays to zero.

// GapRow is one sample of the gap study.
type GapRow struct {
	// Skew scales the intermediate token's CEX price (P_y ← Skew·10.2).
	Skew float64
	// MaxMax and Convex are monetized profits; Gap = Convex − MaxMax ≥ 0.
	MaxMax, Convex, Gap float64
	// RelGap = Gap / Convex (0 when Convex is 0).
	RelGap float64
}

// ExtGapSweep sweeps the intermediate token price on the Section V loop
// and records the Convex − MaxMax gap. The gap vanishes when one start
// token dominates and opens when intermediate tokens are worth keeping.
func ExtGapSweep(points int) ([]GapRow, error) {
	if points < 2 {
		return nil, fmt.Errorf("experiments: gap sweep needs ≥ 2 points")
	}
	loop, err := PaperExampleLoop()
	if err != nil {
		return nil, err
	}
	rows := make([]GapRow, 0, points)
	for i := 0; i < points; i++ {
		skew := 0.1 + 2.9*float64(i)/float64(points-1)
		prices := strategy.PriceMap{"X": 2, "Y": 10.2 * skew, "Z": 20}
		mm, err := strategy.MaxMax(loop, prices)
		if err != nil {
			return nil, err
		}
		cv, err := strategy.Convex(loop, prices)
		if err != nil {
			return nil, err
		}
		gap := cv.Monetized - mm.Monetized
		rel := 0.0
		if cv.Monetized > 1e-12 {
			rel = gap / cv.Monetized
		}
		rows = append(rows, GapRow{
			Skew:   skew,
			MaxMax: mm.Monetized,
			Convex: cv.Monetized,
			Gap:    gap,
			RelGap: rel,
		})
	}
	return rows, nil
}

// GapStudy summarizes the gap over random loops.
type GapStudy struct {
	// RelGaps holds the per-loop relative gaps.
	RelGaps []float64
	// Summary describes their distribution.
	Summary stats.Summary
	// PriceDispersionCorr is the Pearson correlation between a loop's CEX
	// price dispersion (sd/mean of token prices) and its relative gap.
	PriceDispersionCorr float64
	// LoopsWithGap counts loops whose relative gap exceeds 1e-6.
	LoopsWithGap int
}

// ExtGapRandom samples random profitable 3-loops and characterizes the
// Convex − MaxMax gap distribution and its correlation with CEX price
// dispersion.
func ExtGapRandom(trials int, seed int64) (GapStudy, error) {
	if trials <= 1 {
		return GapStudy{}, fmt.Errorf("experiments: gap study needs ≥ 2 trials")
	}
	rng := rand.New(rand.NewSource(seed))
	var study GapStudy
	var dispersions []float64
	for len(study.RelGaps) < trials {
		r := func() float64 { return rng.Float64()*900 + 100 }
		p1, err := amm.NewPool("g1", "X", "Y", r(), r(), amm.DefaultFee)
		if err != nil {
			return GapStudy{}, err
		}
		p2, err := amm.NewPool("g2", "Y", "Z", r(), r(), amm.DefaultFee)
		if err != nil {
			return GapStudy{}, err
		}
		p3, err := amm.NewPool("g3", "Z", "X", r(), r(), amm.DefaultFee)
		if err != nil {
			return GapStudy{}, err
		}
		loop, err := strategy.NewLoop([]strategy.Hop{
			{Pool: p1, TokenIn: "X"}, {Pool: p2, TokenIn: "Y"}, {Pool: p3, TokenIn: "Z"},
		})
		if err != nil {
			return GapStudy{}, err
		}
		profitable, err := loop.Profitable()
		if err != nil {
			return GapStudy{}, err
		}
		if !profitable {
			// Try the reverse orientation before discarding.
			rev, err := strategy.NewLoop([]strategy.Hop{
				{Pool: p3, TokenIn: "X"}, {Pool: p2, TokenIn: "Z"}, {Pool: p1, TokenIn: "Y"},
			})
			if err != nil {
				return GapStudy{}, err
			}
			if profitable, err = rev.Profitable(); err != nil {
				return GapStudy{}, err
			}
			if !profitable {
				continue
			}
			loop = rev
		}
		px := rng.Float64()*30 + 0.1
		py := rng.Float64()*30 + 0.1
		pz := rng.Float64()*30 + 0.1
		prices := strategy.PriceMap{"X": px, "Y": py, "Z": pz}

		mm, err := strategy.MaxMax(loop, prices)
		if err != nil {
			return GapStudy{}, err
		}
		cv, err := strategy.Convex(loop, prices)
		if err != nil {
			return GapStudy{}, err
		}
		gap := cv.Monetized - mm.Monetized
		rel := 0.0
		if cv.Monetized > 1e-12 {
			rel = gap / cv.Monetized
		}
		study.RelGaps = append(study.RelGaps, rel)
		if rel > 1e-6 {
			study.LoopsWithGap++
		}
		mean := (px + py + pz) / 3
		sd, err := stats.StdDev([]float64{px, py, pz})
		if err != nil {
			return GapStudy{}, err
		}
		dispersions = append(dispersions, sd/mean)
	}
	var err error
	if study.Summary, err = stats.Summarize(study.RelGaps); err != nil {
		return GapStudy{}, err
	}
	// Correlation is undefined when all gaps are identical; report 0.
	if corr, err := stats.Pearson(dispersions, study.RelGaps); err == nil {
		study.PriceDispersionCorr = corr
	}
	return study, nil
}

// RiskyRow compares the risk-free problem (8) with the shorting-allowed
// relaxation on one loop.
type RiskyRow struct {
	Loop        string
	Safe, Risky float64
	// Shorted reports whether the risky plan ends short of any token.
	Shorted bool
}

// ExtRisky runs the comparison over the calibrated empirical market.
func ExtRisky(res *PipelineResult) ([]RiskyRow, error) {
	prices := strategy.PriceMap(res.Snapshot.PricesUSD)
	rows := make([]RiskyRow, 0, len(res.Loops))
	for _, la := range res.Loops {
		risky, err := strategy.ConvexRisky(la.Loop, prices)
		if err != nil {
			return nil, err
		}
		shorted := false
		for _, v := range risky.NetTokens {
			if v < -1e-9 {
				shorted = true
				break
			}
		}
		rows = append(rows, RiskyRow{
			Loop:    la.Loop.String(),
			Safe:    la.Convex.Monetized,
			Risky:   risky.Monetized,
			Shorted: shorted,
		})
	}
	return rows, nil
}

// DecayRow is one block of the bot-convergence experiment.
type DecayRow struct {
	Block         int64
	LoopsLeft     int
	RealizedUSD   float64
	CumulativeUSD float64
}

// ExtSteadyState runs the bot against continuous retail (noise) flow:
// every block, noiseSwaps random one-way swaps of size noiseFrac of the
// input reserve hit random pools before the bot acts. Unlike ExtBotDecay
// the market never becomes consistent, so the bot's per-block extraction
// stabilizes at a positive level — the market-(in)efficiency equilibrium
// the related work (Berg et al.) studies empirically.
func ExtSteadyState(blocks, noiseSwaps int, noiseFrac float64, seed int64) ([]DecayRow, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("experiments: need ≥ 1 block")
	}
	if noiseFrac <= 0 || noiseFrac >= 0.5 {
		return nil, fmt.Errorf("experiments: noiseFrac %g outside (0, 0.5)", noiseFrac)
	}
	snap, err := market.Generate(market.DefaultGeneratorConfig())
	if err != nil {
		return nil, err
	}
	filtered := snap.FilterPools(30_000, 100)
	const scale = 1_000_000
	state := chain.NewState(1_693_526_400)
	if err := source.MirrorToChain(state, filtered, scale); err != nil {
		return nil, err
	}
	oracle := cex.NewStatic(filtered.PricesUSD)
	engine, err := bot.New(state, oracle, bot.Config{
		MaxExecutionsPerBlock: 3,
		MinProfitUSD:          0.05,
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	ids := state.PoolIDs()
	rows := make([]DecayRow, 0, blocks)
	cumulative := 0.0
	ctx := context.Background()
	for i := 0; i < blocks; i++ {
		// Retail flow first: random swaps re-misprice the pools.
		for j := 0; j < noiseSwaps; j++ {
			id := ids[rng.Intn(len(ids))]
			t0, t1, err := state.PoolTokens(id)
			if err != nil {
				return nil, err
			}
			tokenIn := t0
			if rng.Intn(2) == 1 {
				tokenIn = t1
			}
			r0, r1, err := state.Reserves(id)
			if err != nil {
				return nil, err
			}
			rin := r0
			if tokenIn == t1 {
				rin = r1
			}
			amt := new(big.Int).Mul(rin, big.NewInt(int64(noiseFrac*1e6)))
			amt.Quo(amt, big.NewInt(1e6))
			if amt.Sign() <= 0 {
				continue
			}
			if _, err := state.Swap(id, tokenIn, amt); err != nil {
				return nil, fmt.Errorf("experiments: noise swap on %s: %w", id, err)
			}
		}

		report, err := engine.Step(ctx)
		if err != nil {
			return nil, err
		}
		cumulative += report.TotalRealizedUSD()
		rows = append(rows, DecayRow{
			Block:         report.Height,
			LoopsLeft:     report.LoopsDetected,
			RealizedUSD:   report.TotalRealizedUSD(),
			CumulativeUSD: cumulative,
		})
	}
	return rows, nil
}

// ExtBotDecay mirrors the calibrated market onto the chain simulator and
// lets the MaxMax bot arbitrage it for the given number of blocks,
// recording the per-block realized profit decay.
func ExtBotDecay(blocks int, executionsPerBlock int) ([]DecayRow, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("experiments: need ≥ 1 block")
	}
	snap, err := market.Generate(market.DefaultGeneratorConfig())
	if err != nil {
		return nil, err
	}
	filtered := snap.FilterPools(30_000, 100)
	const scale = 1_000_000
	state := chain.NewState(1_693_526_400)
	if err := source.MirrorToChain(state, filtered, scale); err != nil {
		return nil, err
	}
	oracle := cex.NewStatic(filtered.PricesUSD)
	engine, err := bot.New(state, oracle, bot.Config{
		MaxExecutionsPerBlock: executionsPerBlock,
		MinProfitUSD:          0.05,
	})
	if err != nil {
		return nil, err
	}

	rows := make([]DecayRow, 0, blocks)
	cumulative := 0.0
	ctx := context.Background()
	for i := 0; i < blocks; i++ {
		report, err := engine.Step(ctx)
		if err != nil {
			return nil, err
		}
		cumulative += report.TotalRealizedUSD()
		rows = append(rows, DecayRow{
			Block:         report.Height,
			LoopsLeft:     report.LoopsDetected,
			RealizedUSD:   report.TotalRealizedUSD(),
			CumulativeUSD: cumulative,
		})
	}
	return rows, nil
}
