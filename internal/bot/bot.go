// Package bot is the block-driven arbitrage engine that ties the library
// together the way a practitioner would run it: each block it reads the
// chain's pool reserves, rebuilds the exchange graph, detects arbitrage
// loops, ranks them by monetized profit under CEX prices, and executes
// the best plans atomically (flash-loan semantics, revert on shortfall).
//
// The paper's §VII discussion motivates the design: the ~10 s block time
// bounds the per-block optimization budget, so the bot chooses between
// the fast MaxMax strategy and the heavier ConvexOptimization per
// configuration, and the realized-vs-predicted gap (plans go stale as
// earlier transactions in the block move shared pools) is reported per
// execution.
package bot

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"sort"

	"arbloop/internal/amm"
	"arbloop/internal/cex"
	"arbloop/internal/chain"
	"arbloop/internal/scan"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
)

// Errors returned by the bot.
var ErrNoPools = errors.New("bot: chain has no pools")

// Config tunes the engine. The zero value is usable: length-3 loops,
// MaxMax strategy, one execution per block.
type Config struct {
	// LoopLen is the detected loop length (default 3).
	LoopLen int
	// Strategy is the pluggable per-loop optimizer (default
	// strategy.MaxMaxStrategy). Any registered or custom Strategy works;
	// the paper's trade-off is MaxMax (fast) vs ConvexStrategy (heavier,
	// provably ≥ MaxMax).
	Strategy strategy.Strategy
	// MinProfitUSD skips plans predicted below this (default 0.01$ —
	// dust plans lose to integer rounding).
	MinProfitUSD float64
	// MaxExecutionsPerBlock bounds how many loops execute per block
	// (default 1).
	MaxExecutionsPerBlock int
	// Scale is the integer base units per whole token on the chain
	// (default 1e6). Must match how the chain state was populated.
	Scale int64
	// Reoptimize executes plans sequentially within the block,
	// re-detecting against the updated reserves after each execution
	// (transactions in a block are ordered, so this is what a searcher
	// controlling block position does). It eliminates intra-block stale
	// plans at the cost of re-running detection per execution.
	Reoptimize bool
}

func (c Config) withDefaults() Config {
	if c.LoopLen <= 0 {
		c.LoopLen = 3
	}
	if c.Strategy == nil {
		c.Strategy = strategy.MaxMaxStrategy{}
	}
	if c.MinProfitUSD <= 0 {
		c.MinProfitUSD = 0.01
	}
	if c.MaxExecutionsPerBlock <= 0 {
		c.MaxExecutionsPerBlock = 1
	}
	if c.Scale <= 0 {
		c.Scale = 1_000_000
	}
	return c
}

// Execution records one attempted arbitrage in a block.
type Execution struct {
	// Loop is the human-readable loop route.
	Loop string
	// Strategy is the name of the optimizer that produced the plan.
	Strategy string
	// PredictedUSD is the plan's monetized profit at planning time.
	PredictedUSD float64
	// RealizedUSD is the monetized profit actually committed (0 when
	// reverted).
	RealizedUSD float64
	// Reverted reports whether the transaction failed atomically.
	Reverted bool
	// RevertReason carries the revert error when Reverted.
	RevertReason error
}

// BlockReport summarizes one engine step.
type BlockReport struct {
	// Height is the block the executions landed in.
	Height int64
	// LoopsDetected counts profitable loops found this block.
	LoopsDetected int
	// Executions lists attempted arbitrages in order.
	Executions []Execution
}

// TotalRealizedUSD sums realized profit over the block.
func (r BlockReport) TotalRealizedUSD() float64 {
	total := 0.0
	for _, e := range r.Executions {
		total += e.RealizedUSD
	}
	return total
}

// Bot is the engine. Create with New; run with Step or Run.
type Bot struct {
	state  *chain.State
	pools  *source.ChainSource
	oracle cex.Oracle
	cfg    Config
	// delta keeps the previous block's per-loop results so each block
	// re-optimizes only the loops whose pools traded since — the bot's
	// own executions plus whatever retail flow moved. Equivalent reports,
	// a fraction of the optimization work. Its topology cache spares the
	// cycle enumeration when a capture meets a pool set seen before.
	delta *scan.Delta

	// lifetime counters
	blocks        int
	executed      int
	reverted      int
	realizedTotal float64
}

// New builds an engine over a chain state and price oracle.
func New(state *chain.State, oracle cex.Oracle, cfg Config) (*Bot, error) {
	if state == nil || oracle == nil {
		return nil, fmt.Errorf("bot: state and oracle are required")
	}
	cfg = cfg.withDefaults()
	return &Bot{
		state:  state,
		pools:  source.FromChain(state, cfg.Scale),
		oracle: oracle,
		cfg:    cfg,
		delta: scan.NewDelta(scan.Config{
			MinLen:       cfg.LoopLen,
			MaxLen:       cfg.LoopLen,
			Strategy:     cfg.Strategy,
			MinProfitUSD: cfg.MinProfitUSD,
			Cache:        scan.NewCache(0),
		}),
	}, nil
}

// Stats reports lifetime counters.
type Stats struct {
	Blocks      int
	Executed    int
	Reverted    int
	RealizedUSD float64
}

// Stats returns the engine's lifetime counters.
func (b *Bot) Stats() Stats {
	return Stats{
		Blocks:      b.blocks,
		Executed:    b.executed,
		Reverted:    b.reverted,
		RealizedUSD: b.realizedTotal,
	}
}

// plan is a ranked executable opportunity.
type plan struct {
	loop      *strategy.Loop
	result    strategy.Result
	predicted float64
}

// findPlans reads the chain through the pool source and runs one delta
// scan — only loops touching pools that traded since the previous scan
// are re-optimized with the configured strategy; the rest merge from the
// previous block's results — returning plans ranked by predicted profit.
func (b *Bot) findPlans(ctx context.Context) ([]plan, error) {
	pools, err := b.pools.Pools(ctx)
	if err != nil {
		return nil, err
	}
	if len(pools) == 0 {
		return nil, ErrNoPools
	}
	report, err := b.delta.Scan(ctx, pools, nil, b.oracle)
	if err != nil {
		return nil, fmt.Errorf("bot: scan: %w", err)
	}
	plans := make([]plan, 0, len(report.Results))
	for _, r := range report.Results {
		plans = append(plans, plan{loop: r.Loop, result: r.Result, predicted: r.Result.Monetized})
	}
	return plans, nil
}

// buildTx converts a strategy result into an atomic chain transaction by
// pre-simulating it in exact integer arithmetic against the current
// reserves: each hop spends min(planned amount, integer proceeds), so
// float→integer truncation can never leave a later hop unfunded. Plans
// whose integer execution cannot repay the flash loan (dust profits eaten
// by rounding) are rejected here instead of reverting on chain.
func (b *Bot) buildTx(p plan) (chain.Tx, error) {
	res := p.result
	loop := res.Loop
	scale := float64(b.cfg.Scale)

	tokens := loop.Tokens()
	steps := make([]chain.SwapStep, loop.Len())
	borrow := new(big.Int).SetInt64(int64(math.Floor(res.Plan.Inputs[0] * scale)))
	if borrow.Sign() <= 0 {
		return chain.Tx{}, fmt.Errorf("bot: borrow %.9g rounds to zero at scale %d", res.Plan.Inputs[0], b.cfg.Scale)
	}
	balances := map[string]*big.Int{tokens[0]: new(big.Int).Set(borrow)}

	for i := 0; i < loop.Len(); i++ {
		planned := new(big.Int).SetInt64(int64(math.Floor(res.Plan.Inputs[i] * scale)))
		have := balances[tokens[i]]
		if have == nil || have.Sign() <= 0 {
			return chain.Tx{}, fmt.Errorf("bot: hop %d has no integer funds for %s", i, tokens[i])
		}
		amt := planned
		if amt.Cmp(have) > 0 {
			amt = new(big.Int).Set(have)
		}
		if amt.Sign() <= 0 {
			return chain.Tx{}, fmt.Errorf("bot: hop %d input rounds to zero", i)
		}

		pool := loop.Hop(i).Pool
		r0, r1, err := b.state.Reserves(pool.ID)
		if err != nil {
			return chain.Tx{}, err
		}
		t0, _, err := b.state.PoolTokens(pool.ID)
		if err != nil {
			return chain.Tx{}, err
		}
		feeBps, err := b.state.PoolFee(pool.ID)
		if err != nil {
			return chain.Tx{}, err
		}
		rin, rout := r0, r1
		if tokens[i] != t0 {
			rin, rout = r1, r0
		}
		out, err := amm.GetAmountOut(amt, rin, rout, feeBps)
		if err != nil {
			return chain.Tx{}, fmt.Errorf("bot: hop %d: %w", i, err)
		}
		have.Sub(have, amt)
		outTok := tokens[(i+1)%loop.Len()]
		if bal := balances[outTok]; bal != nil {
			bal.Add(bal, out)
		} else {
			balances[outTok] = out
		}
		steps[i] = chain.SwapStep{PairID: pool.ID, TokenIn: tokens[i], AmountIn: amt}
	}

	if balances[tokens[0]].Cmp(borrow) < 0 {
		return chain.Tx{}, fmt.Errorf("bot: integer execution cannot repay the loan (plan profit below rounding)")
	}
	return chain.Tx{Borrow: tokens[0], Amount: borrow, Steps: steps}, nil
}

// monetizeReceipt values a receipt's profit at current prices, net of the
// borrow repayment (already deducted by the chain).
func (b *Bot) monetizeReceipt(ctx context.Context, rcpt chain.Receipt) (float64, error) {
	total := 0.0
	scale := float64(b.cfg.Scale)
	symbols := make([]string, 0, len(rcpt.Profit))
	for tok := range rcpt.Profit {
		symbols = append(symbols, tok)
	}
	sort.Strings(symbols)
	if len(symbols) == 0 {
		return 0, nil
	}
	prices, err := b.oracle.Prices(ctx, symbols)
	if err != nil {
		return 0, err
	}
	for _, tok := range symbols {
		f, _ := new(big.Float).SetInt(rcpt.Profit[tok]).Float64()
		total += f / scale * prices[tok]
	}
	return total, nil
}

// Step runs one block: detect, rank, execute up to the configured number
// of plans, and advance the chain.
func (b *Bot) Step(ctx context.Context) (BlockReport, error) {
	if b.cfg.Reoptimize {
		return b.stepReoptimize(ctx)
	}
	plans, err := b.findPlans(ctx)
	if err != nil {
		return BlockReport{}, err
	}
	limit := b.cfg.MaxExecutionsPerBlock
	if len(plans) < limit {
		limit = len(plans)
	}

	txs := make([]chain.Tx, 0, limit)
	execs := make([]Execution, 0, limit)
	submitted := make([]int, 0, limit) // execution index per submitted tx
	for _, p := range plans[:limit] {
		e := Execution{
			Loop:         p.loop.String(),
			Strategy:     b.cfg.Strategy.Name(),
			PredictedUSD: p.predicted,
		}
		tx, err := b.buildTx(p)
		if err != nil {
			// Plan not executable at integer precision: record without
			// submitting.
			e.Reverted = true
			e.RevertReason = err
			b.reverted++
			execs = append(execs, e)
			continue
		}
		submitted = append(submitted, len(execs))
		execs = append(execs, e)
		txs = append(txs, tx)
	}

	receipts := b.state.Block(txs)
	report := BlockReport{LoopsDetected: len(plans), Executions: execs}
	report.Height = b.state.Height()
	for i, rcpt := range receipts {
		e := &report.Executions[submitted[i]]
		if !rcpt.OK {
			e.Reverted = true
			e.RevertReason = rcpt.Err
			b.reverted++
			continue
		}
		realized, err := b.monetizeReceipt(ctx, rcpt)
		if err != nil {
			return BlockReport{}, err
		}
		e.RealizedUSD = realized
		b.executed++
		b.realizedTotal += realized
	}
	b.blocks++
	return report, nil
}

// stepReoptimize executes up to the per-block limit sequentially,
// re-running detection against the post-execution reserves each time, so
// every plan is computed against the state it will actually execute on.
func (b *Bot) stepReoptimize(ctx context.Context) (BlockReport, error) {
	report := BlockReport{}
	for i := 0; i < b.cfg.MaxExecutionsPerBlock; i++ {
		plans, err := b.findPlans(ctx)
		if err != nil {
			return BlockReport{}, err
		}
		if i == 0 {
			report.LoopsDetected = len(plans)
		}
		if len(plans) == 0 {
			break
		}
		p := plans[0]
		e := Execution{
			Loop:         p.loop.String(),
			Strategy:     b.cfg.Strategy.Name(),
			PredictedUSD: p.predicted,
		}
		tx, err := b.buildTx(p)
		if err != nil {
			e.Reverted = true
			e.RevertReason = err
			b.reverted++
			report.Executions = append(report.Executions, e)
			break // the same plan would fail again; stop this block
		}
		rcpt := b.state.ExecuteTx(tx)
		if !rcpt.OK {
			e.Reverted = true
			e.RevertReason = rcpt.Err
			b.reverted++
			report.Executions = append(report.Executions, e)
			break
		}
		realized, err := b.monetizeReceipt(ctx, rcpt)
		if err != nil {
			return BlockReport{}, err
		}
		e.RealizedUSD = realized
		b.executed++
		b.realizedTotal += realized
		report.Executions = append(report.Executions, e)
	}
	// Seal the block (the transactions above are its ordered contents).
	b.state.Block(nil)
	report.Height = b.state.Height()
	b.blocks++
	return report, nil
}

// Run executes n blocks and returns their reports.
func (b *Bot) Run(ctx context.Context, n int) ([]BlockReport, error) {
	reports := make([]BlockReport, 0, n)
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			return reports, ctx.Err()
		default:
		}
		r, err := b.Step(ctx)
		if err != nil {
			return reports, err
		}
		reports = append(reports, r)
	}
	return reports, nil
}
