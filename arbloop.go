// Package arbloop is the public API of the arbitrage-loop profit
// maximization library, a faithful reproduction of "Profit Maximization
// In Arbitrage Loops" (Zhang et al., ICDCS 2024), grown into a
// concurrent whole-market scanning engine.
//
// # Overview
//
// On constant-product AMMs (Uniswap V2 style), a loop of liquidity pools
// X→Y→Z→X is an arbitrage loop when the product of fee-adjusted spot
// prices along it exceeds 1. This library finds such loops and maximizes
// the *monetized* profit — the net token amounts valued at CEX prices.
//
// The API is organized around three abstractions:
//
//   - Strategy: a pluggable per-loop optimizer. The paper's strategies
//     ship as implementations — TraditionalStrategy, MaxPriceStrategy,
//     MaxMaxStrategy (closed-form Möbius optimum per start token),
//     ConvexStrategy (the paper's problem (8), provably ≥ MaxMax), and
//     ConvexRiskyStrategy (the §IV shorting-allowed relaxation). Custom
//     strategies implement the two-method interface and may be added to
//     the name registry with RegisterStrategy.
//   - PoolSource / PriceSource: where pools and CEX prices come from.
//     Snapshots (FromSnapshot), the chain simulator (FromChain), fixed
//     pool lists (StaticPools), and every price Oracle satisfy them, so
//     new backends plug in without touching the pipeline.
//   - Scanner: a whole-market scan — detect arbitrage loops once, then
//     fan per-loop optimization out over a bounded worker pool. Scan
//     returns a ranked batch report; ScanStream delivers results as they
//     complete. Both honor context cancellation and are safe for
//     concurrent use.
//
// For block-driven serving, a Watcher (NewWatcher) turns any PoolSource
// into a versioned pool feed with topology-change detection and
// latest-wins coalescing, and Scanner.Watch consumes it with scans that
// reuse cached cycle enumerations whenever the topology is unchanged.
// `arbloop serve` wraps the whole stack in an HTTP/SSE service.
//
// # Quick start
//
//	snap, _ := arbloop.GenerateMarket(arbloop.DefaultGeneratorConfig())
//	src := arbloop.FromSnapshot(snap.FilterPools(30_000, 100))
//	sc, _ := arbloop.NewScanner(src, src,
//		arbloop.WithStrategy(arbloop.MaxMaxStrategy{}),
//		arbloop.WithParallelism(8),
//		arbloop.WithTopK(10))
//	report, _ := sc.Scan(context.Background())
//	for _, r := range report.Results {
//		fmt.Printf("%s → $%.2f from %s\n", r.Loop, r.Result.Monetized, r.Result.StartToken)
//	}
//
// Single loops can still be optimized directly:
//
//	best, _ := arbloop.MaxMax(loop, prices)           // plain function
//	best, _ = arbloop.MaxMaxStrategy{}.Optimize(ctx, loop, prices)
//
// See examples/ for runnable programs and internal/experiments for the
// harnesses that regenerate every figure and table of the paper.
package arbloop

import (
	"arbloop/internal/amm"
	"arbloop/internal/cex"
	"arbloop/internal/cycles"
	"arbloop/internal/feed"
	"arbloop/internal/graph"
	"arbloop/internal/market"
	"arbloop/internal/pathfind"
	"arbloop/internal/scan"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
)

// DefaultFee is the Uniswap V2 pool fee (0.3%).
const DefaultFee = amm.DefaultFee

// Core AMM types.
type (
	// Pool is an analytic constant-product pool (float64 reserves).
	Pool = amm.Pool
	// Pair is the exact big.Int Uniswap V2 pair.
	Pair = amm.Pair
	// Mobius is the composed swap map A·Δ/(B + C·Δ).
	Mobius = amm.Mobius
)

// Loop and strategy types.
type (
	// Hop is one swap of a loop.
	Hop = strategy.Hop
	// Loop is a validated arbitrage loop.
	Loop = strategy.Loop
	// PriceMap maps token keys to CEX USD prices.
	PriceMap = strategy.PriceMap
	// Result is a strategy outcome; Result.Strategy names the producer.
	Result = strategy.Result
	// TradePlan is the per-hop flow of a result.
	TradePlan = strategy.TradePlan
	// ConvexOptions is ConvexStrategy's options; ColdStart has no effect.
	//
	// Deprecated: no option changes the exact solve. The name remains
	// because the perfbench module still sets ColdStart.
	ConvexOptions = strategy.ConvexOptions
)

// Strategy is the pluggable per-loop optimizer interface. Implementations
// must be safe for concurrent use; the Scanner calls one Strategy value
// from many workers.
type Strategy = strategy.Strategy

// The paper's strategies as Strategy implementations.
type (
	// TraditionalStrategy fixes a start token (default: the loop anchor).
	TraditionalStrategy = strategy.TraditionalStrategy
	// MaxPriceStrategy starts from the highest-priced loop token.
	MaxPriceStrategy = strategy.MaxPriceStrategy
	// MaxMaxStrategy takes the best Traditional start (paper eq. 6).
	MaxMaxStrategy = strategy.MaxMaxStrategy
	// ConvexStrategy solves the paper's problem (8).
	ConvexStrategy = strategy.ConvexStrategy
	// ConvexRiskyStrategy solves the shorting-allowed relaxation (§IV).
	ConvexRiskyStrategy = strategy.ConvexRiskyStrategy
)

// Canonical names of the built-in strategies (registry keys and
// Result.Strategy values).
const (
	StrategyTraditional = strategy.NameTraditional
	StrategyMaxPrice    = strategy.NameMaxPrice
	StrategyMaxMax      = strategy.NameMaxMax
	StrategyConvex      = strategy.NameConvex
	StrategyConvexRisky = strategy.NameConvexRisky
)

// Breaker state labels as reported by BreakerState.State and the
// /v1/healthz breakers section.
const (
	BreakerClosed   = source.BreakerClosed
	BreakerOpen     = source.BreakerOpen
	BreakerHalfOpen = source.BreakerHalfOpen
)

// Strategy registry.
var (
	// RegisterStrategy adds a custom strategy under its Name.
	RegisterStrategy = strategy.Register
	// LookupStrategy resolves a registered strategy by name.
	LookupStrategy = strategy.Lookup
	// StrategyNames lists registered strategy names, sorted.
	StrategyNames = strategy.Names
)

// Data-source contracts and adapters.
type (
	// PoolSource supplies the current set of liquidity pools.
	PoolSource = source.PoolSource
	// PriceSource supplies USD prices for token symbols; every Oracle
	// satisfies it.
	PriceSource = source.PriceSource
	// StaticPools is a fixed pool list satisfying PoolSource.
	StaticPools = source.StaticPools
	// SnapshotSource adapts a market snapshot to PoolSource + PriceSource.
	SnapshotSource = source.SnapshotSource
	// FallbackPriceSource is a PriceSource that can answer from a degraded
	// substitute (last-known-good data); scans consuming one mark their
	// reports Degraded when the fallback path was used.
	FallbackPriceSource = source.FallbackPriceSource
	// PriceBreaker wraps a PriceSource with a circuit breaker and a
	// last-known-good fallback — the serving tier's price-outage
	// containment.
	PriceBreaker = source.PriceBreaker
	// BreakerState is a point-in-time PriceBreaker snapshot (healthz shape).
	BreakerState = source.BreakerState
	// BreakerOption configures a PriceBreaker.
	BreakerOption = source.BreakerOption
)

var (
	// FromSnapshot wraps a market snapshot as a pool + price source.
	FromSnapshot = source.FromSnapshot
	// FromChain wraps chain-simulator state as a pool source.
	FromChain = source.FromChain
	// NewPriceBreaker wraps a PriceSource in a PriceBreaker.
	NewPriceBreaker = source.NewPriceBreaker
	// WithBreakerThreshold sets the consecutive-failure trip count.
	WithBreakerThreshold = source.WithBreakerThreshold
	// WithBreakerCooldown sets the open-state probe interval.
	WithBreakerCooldown = source.WithBreakerCooldown
)

// Live pool feed: a Watcher turns any PoolSource into a versioned,
// subscribable stream of pool updates with topology-change detection and
// latest-wins coalescing — the input side of a block-driven service.
// Scanner.Watch consumes one directly; Scanner.ScanVersioned scans a
// single update.
type (
	// Watcher polls or is notified about pool-set changes and fans out
	// versioned updates.
	Watcher = feed.Watcher
	// PoolUpdate is one versioned view of the pool set.
	PoolUpdate = feed.Update
	// WatcherOption configures a Watcher.
	WatcherOption = feed.Option
	// WatcherFailureMode selects Watcher.Run's exhausted-retry behaviour.
	WatcherFailureMode = feed.FailureMode
)

// Watcher failure modes (see WithWatcherFailureMode).
const (
	// FailStop tears the feed down when a refresh exhausts its retries.
	FailStop = feed.FailStop
	// FailDegrade absorbs exhausted retry budgets and keeps serving the
	// last good update; /v1/healthz staleness is the alarm.
	FailDegrade = feed.FailDegrade
)

var (
	// NewWatcher wraps a PoolSource as a live pool feed.
	NewWatcher = feed.NewWatcher
	// WithHeightProbe stamps a block height onto every update
	// (chain.State.Height fits directly).
	WithHeightProbe = feed.WithHeightProbe
	// WithWatcherRetry bounds Watcher.Run's per-trigger retries on source
	// failures (default 3 attempts, 100 ms doubling backoff) so one flaky
	// poll never tears down every subscription.
	WithWatcherRetry = feed.WithRetry
	// WithWatcherErrorHandler registers a callback for every failed
	// refresh attempt — the feed's observability hook (quarantined pools
	// surface here wrapped in feed.ErrQuarantined).
	WithWatcherErrorHandler = feed.WithErrorHandler
	// WithWatcherRefreshTimeout bounds each source poll so a hung
	// PoolSource fails the refresh instead of wedging the feed.
	WithWatcherRefreshTimeout = feed.WithRefreshTimeout
	// WithWatcherFailureMode selects what Run does when a refresh exhausts
	// its retry budget: FailStop (default) tears the feed down, FailDegrade
	// keeps subscriptions alive and lets staleness monitoring raise the
	// alarm instead.
	WithWatcherFailureMode = feed.WithFailureMode
	// TopologyFingerprint hashes a pool set's topology (IDs, token pairs,
	// fees — not reserves), order-insensitively: pools are canonicalized
	// by ID first, so equal fingerprints mean cached cycle enumerations
	// carry over between scans regardless of source ordering.
	TopologyFingerprint = scan.Fingerprint
)

// Market and detection types.
type (
	// Snapshot is a market snapshot (tokens, pools, CEX prices).
	Snapshot = market.Snapshot
	// PoolRecord is one pool inside a snapshot.
	PoolRecord = market.PoolRecord
	// GeneratorConfig tunes the synthetic market generator.
	GeneratorConfig = market.GeneratorConfig
	// Graph is the token exchange graph.
	Graph = graph.Graph
	// Cycle is an undirected simple cycle of pools.
	Cycle = cycles.Cycle
	// Directed is an oriented traversal of a cycle.
	Directed = cycles.Directed
	// Oracle supplies CEX prices.
	Oracle = cex.Oracle
	// PriceClientOptions tunes the HTTP price client.
	PriceClientOptions = cex.ClientOptions
)

// Pool and loop construction.
var (
	// NewPool validates and builds an analytic pool.
	NewPool = amm.NewPool
	// NewPair builds an exact integer pair.
	NewPair = amm.NewPair
	// NewLoop validates a hop sequence into a Loop.
	NewLoop = strategy.NewLoop
)

// Single-loop strategy functions (the paper's contribution). The Strategy
// implementations above wrap these for the Scanner; call them directly
// when optimizing one known loop.
var (
	// Traditional maximizes profit from a fixed start token.
	Traditional = strategy.Traditional
	// TraditionalAll runs Traditional from every loop token.
	TraditionalAll = strategy.TraditionalAll
	// MaxPrice starts from the highest-priced token.
	MaxPrice = strategy.MaxPrice
	// MaxMax takes the best Traditional start (paper eq. 6).
	MaxMax = strategy.MaxMax
	// Convex solves the paper's problem (8) exactly: a KKT-certified
	// closed form.
	Convex = strategy.Convex
	// ConvexRisky solves the shorting-allowed relaxation the paper
	// mentions in §IV but declines to evaluate (extension).
	ConvexRisky = strategy.ConvexRisky
	// VerifyNoArbEquivalence checks the §IV no-arbitrage theorem.
	VerifyNoArbEquivalence = strategy.VerifyNoArbEquivalence
)

// Loop detection.
var (
	// BuildGraph constructs a token exchange graph from pools.
	BuildGraph = graph.Build
	// EnumerateCycles lists simple cycles with length bounds.
	EnumerateCycles = cycles.Enumerate
	// ArbitrageLoops keeps the profitable orientations of cycles.
	ArbitrageLoops = cycles.ArbitrageLoops
	// JohnsonCircuits enumerates elementary circuits (related work).
	JohnsonCircuits = cycles.Johnson
	// FindNegativeCycle runs Bellman–Ford–Moore arbitrage detection.
	FindNegativeCycle = cycles.BellmanFordMoore
	// LoopFromDirected converts a detected cycle into a Loop.
	LoopFromDirected = scan.LoopFromDirected
)

// Market utilities.
var (
	// GenerateMarket builds a deterministic synthetic snapshot.
	GenerateMarket = market.Generate
	// DefaultGeneratorConfig reproduces the paper's §VI statistics.
	DefaultGeneratorConfig = market.DefaultGeneratorConfig
	// LoadSnapshot reads a snapshot from JSON.
	LoadSnapshot = market.Load
)

// CEX price oracles.
var (
	// NewStaticOracle wraps a fixed price table.
	NewStaticOracle = cex.NewStatic
	// NewPriceServer serves a CoinGecko-style price API.
	NewPriceServer = cex.NewServer
	// NewPriceClient fetches prices over HTTP with TTL caching.
	NewPriceClient = cex.NewClient
)

// Order routing (related work [8], Danos et al.).
type (
	// Route is one candidate swap path with its evaluation.
	Route = pathfind.Route
	// Split is an optimal allocation across parallel routes.
	Split = pathfind.Split
)

// Order routing functions.
var (
	// BestRoute finds the output-maximizing path between two tokens.
	BestRoute = pathfind.BestRoute
	// AllRoutes enumerates candidate paths sorted by output.
	AllRoutes = pathfind.AllRoutes
	// OptimalSplit water-fills an input across parallel routes.
	OptimalSplit = pathfind.OptimalSplit
)
