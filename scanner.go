package arbloop

import (
	"context"
	"fmt"
	"time"

	"arbloop/internal/scan"
)

// ScanResult is one scanned loop: the strategy outcome, or the per-loop
// error that kept the strategy from producing one. Index is the loop's
// position in detection order, stable across runs and parallelism levels.
type ScanResult = scan.Result

// ScanReport is the ranked outcome of one batch Scan.
type ScanReport = scan.Report

// Scanner runs whole-market scans: detect arbitrage loops once from a
// PoolSource, batch-fetch CEX prices from a PriceSource, and fan the
// per-loop optimization out over a bounded worker pool. A Scanner's
// configuration is immutable after construction and safe for concurrent
// use — any number of Scan, ScanStream, ScanVersioned, ScanDelta, and
// Watch calls may run at once, each seeing its own point-in-time view of
// the sources (delta scans briefly lock the scanner's delta state to
// snapshot and commit baselines; prices and optimization always run
// outside the lock).
//
// Every Scanner carries a topology cache (see WithTopologyCache): the
// cycle-enumeration half of detection is keyed by a fingerprint of the
// pool set's topology, so repeated scans over a market whose reserves
// move but whose pools don't — the block-after-block case — skip
// enumeration entirely and only re-orient and re-optimize.
//
// On top of that sits delta scanning (see ScanDelta and Watch): the
// scanner remembers the previous scan's per-loop results and, for a
// reserve-only update, re-optimizes only the loops routing through a
// pool that actually traded (or holding a token whose CEX price moved),
// merging every other result from the previous scan. Reports are
// identical to full scans over the same state; Report.LoopsReoptimized
// and Report.LoopsReused expose the work split. WithDeltaScans(false)
// disables the path.
type Scanner struct {
	pools  PoolSource
	prices PriceSource
	// cfg is resolved once by NewScanner.
	cfg scan.Config
	// delta is the delta engine behind ScanDelta/Watch, bound to cfg
	// (nil when WithDeltaScans(false)).
	delta *scan.Delta
}

// ScannerOption configures a Scanner.
type ScannerOption func(*scan.Config)

// WithLoopLengths bounds the detected loop length to [min, max]. The
// default is [3, 3], the paper's §VI setting.
func WithLoopLengths(min, max int) ScannerOption {
	return func(c *scan.Config) { c.MinLen, c.MaxLen = min, max }
}

// WithStrategy selects the per-loop optimizer (default MaxMaxStrategy).
func WithStrategy(s Strategy) ScannerOption {
	return func(c *scan.Config) { c.Strategy = s }
}

// WithStrategyName selects a registered strategy by name; unknown names
// surface as an error from NewScanner.
func WithStrategyName(name string) ScannerOption {
	return func(c *scan.Config) {
		s, ok := LookupStrategy(name)
		if !ok {
			c.Strategy = errStrategy{name: name}
			return
		}
		c.Strategy = s
	}
}

// errStrategy defers an unknown-name error to NewScanner validation.
type errStrategy struct{ name string }

func (e errStrategy) Name() string { return e.name }
func (e errStrategy) Optimize(context.Context, *Loop, PriceMap) (Result, error) {
	return Result{}, fmt.Errorf("arbloop: unknown strategy %q", e.name)
}

// WithParallelism bounds the optimization worker pool (default
// GOMAXPROCS, resolved once at NewScanner: later GOMAXPROCS changes do
// not resize it). Parallelism 1 reproduces the sequential per-loop order
// of work exactly.
func WithParallelism(n int) ScannerOption {
	return func(c *scan.Config) { c.Parallelism = n }
}

// WithMinProfitUSD drops results whose monetized profit is predicted
// below the threshold (default 0: keep every non-negative result).
func WithMinProfitUSD(usd float64) ScannerOption {
	return func(c *scan.Config) { c.MinProfitUSD = usd }
}

// WithTopK truncates the ranked batch report to the K most profitable
// loops (default 0: keep all). Streaming scans ignore it.
func WithTopK(k int) ScannerOption {
	return func(c *scan.Config) { c.TopK = k }
}

// WithMaxCycles caps how many undirected cycles detection may enumerate
// (default 0: unlimited). A scan that exceeds the cap fails instead of
// blowing the per-block time budget — the guard a serving deployment
// needs against adversarially dense markets.
func WithMaxCycles(n int) ScannerOption {
	return func(c *scan.Config) { c.MaxCycles = n }
}

// WithTopologyCache sizes the scanner's topology cache: how many distinct
// pool-set topologies keep their enumerated cycles in memory (default 8).
// Pass a negative capacity to disable caching — every scan re-enumerates,
// the pre-cache behaviour.
func WithTopologyCache(capacity int) ScannerOption {
	return func(c *scan.Config) {
		if capacity < 0 {
			c.Cache = nil
			return
		}
		c.Cache = scan.NewCache(capacity)
	}
}

// WithDeltaScans toggles the delta path behind ScanDelta and Watch
// (default on). With delta scans disabled every feed-driven scan is a
// full scan — the pre-delta behaviour, useful for benchmarking the
// speedup and as an escape hatch.
func WithDeltaScans(enabled bool) ScannerOption {
	return func(c *scan.Config) { c.DisableDelta = !enabled }
}

// ScanMetrics is the scanner's telemetry: per-stage latency histograms,
// scan and loop counters, per-pool dirtiness-rate EMAs, and per-shard
// wake-up counts. Obtain with Scanner.Metrics; expose on a
// telemetry.Registry with its Register method (internal/server mounts
// the registry at GET /v1/metrics).
type ScanMetrics = scan.Metrics

// WithStageTimeout bounds the price-fetch stage of every scan (default 0:
// no bound). With a timeout set, a hung PriceSource cancels that scan with
// context.DeadlineExceeded instead of wedging the pipeline; the next feed
// update triggers a fresh scan. Enabling it moves the price fetch off the
// allocation-free path (context.WithTimeout allocates), so the steady-state
// allocation budget is quoted with it off.
func WithStageTimeout(d time.Duration) ScannerOption {
	return func(c *scan.Config) { c.StageTimeout = d }
}

// WithShards partitions the cycle set into n shards for the delta path
// (default GOMAXPROCS, resolved once at NewScanner: later GOMAXPROCS
// changes do not re-partition). Each shard owns the remembered state of
// its cycles — partitioned connected-component-aware over the
// pool→cycle index — and a delta scan re-orients only the shards a dirty
// pool touches, in parallel. Shards change how the work is organized,
// not the results: reports are identical at every shard count.
// WithParallelism independently bounds how many goroutines execute the
// shard and per-loop work.
func WithShards(n int) ScannerOption {
	return func(c *scan.Config) { c.Shards = n }
}

// DeltaStats reports how the scanner's delta state resolved its scans:
// full captures vs delta scans, cumulative shards rescanned, and the
// current shard count. Zero when delta scans are disabled.
type DeltaStats = scan.DeltaStats

// DeltaStats returns the scanner's delta-path counters.
func (s *Scanner) DeltaStats() DeltaStats {
	if s.delta == nil {
		return DeltaStats{}
	}
	return s.delta.Stats()
}

// Metrics returns the scanner's telemetry.
func (s *Scanner) Metrics() *ScanMetrics {
	return s.cfg.Metrics
}

// PrimeDirtiness seeds the per-pool dirtiness-rate EMAs with estimates
// recovered from a previous run (pool ID → rate in [0, 1]), so a
// restarted serving process resumes with yesterday's activity profile
// instead of re-learning it over the EMA time constant. Call before the
// first scan.
func (s *Scanner) PrimeDirtiness(priors map[string]float64) {
	s.cfg.Metrics.PrimeDirtiness(priors)
}

// NewScanner builds a scanner over a pool source and a price source.
// A SnapshotSource (FromSnapshot) can serve as both.
func NewScanner(pools PoolSource, prices PriceSource, opts ...ScannerOption) (*Scanner, error) {
	if pools == nil || prices == nil {
		return nil, fmt.Errorf("arbloop: scanner needs a pool source and a price source")
	}
	// The default topology cache is installed before the options run so
	// WithTopologyCache can resize or disable it.
	cfg := scan.Config{Cache: scan.NewCache(0), Metrics: scan.NewMetrics()}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.MinLen < 0 || cfg.MaxLen < 0 || (cfg.MaxLen > 0 && cfg.MaxLen < cfg.MinLen) {
		return nil, fmt.Errorf("arbloop: invalid loop lengths [%d, %d]", cfg.MinLen, cfg.MaxLen)
	}
	if es, bad := cfg.Strategy.(errStrategy); bad {
		return nil, fmt.Errorf("arbloop: unknown strategy %q (registered: %v)", es.name, StrategyNames())
	}
	s := &Scanner{pools: pools, prices: prices, cfg: cfg.Resolve()}
	if !cfg.DisableDelta {
		s.delta = scan.NewDelta(s.cfg)
	}
	return s, nil
}

// Scan runs one batch scan: detection, parallel optimization, then
// ranking by monetized profit (filtered by WithMinProfitUSD, truncated to
// WithTopK). It honors ctx cancellation between pipeline stages and
// per-loop.
func (s *Scanner) Scan(ctx context.Context) (ScanReport, error) {
	pools, err := s.pools.Pools(ctx)
	if err != nil {
		return ScanReport{}, fmt.Errorf("arbloop: read pools: %w", err)
	}
	return scan.Run(ctx, pools, s.prices, s.cfg)
}

// ScanStream runs one scan and delivers per-loop results as workers
// finish them, in completion order (use ScanResult.Index to re-sequence).
// The channel closes when the scan completes or ctx is cancelled. Errors
// — a failed detection stage or a failed individual loop — arrive on the
// channel with Err set, so a consumer sees everything in one place.
func (s *Scanner) ScanStream(ctx context.Context) <-chan ScanResult {
	pools, err := s.pools.Pools(ctx)
	if err != nil {
		out := make(chan ScanResult, 1)
		out <- ScanResult{Index: -1, Err: fmt.Errorf("arbloop: read pools: %w", err)}
		close(out)
		return out
	}
	return scan.Stream(ctx, pools, s.prices, s.cfg)
}

// VersionedReport pairs a scan report with the pool-feed coordinates it
// was computed from, so consumers can discard stale work and measure the
// per-block latency budget the paper's §VII discusses.
type VersionedReport struct {
	// Version is the feed version of the scanned update.
	Version uint64
	// Height is the source block height carried by the update (0 when the
	// watcher has no height probe).
	Height int64
	// Report is the ranked scan outcome (zero when Err != nil).
	Report ScanReport
	// Elapsed is the wall-clock scan latency.
	Elapsed time.Duration
	// ChangedPools echoes the update's changed-pool IDs (nil when the
	// feed doesn't provide them) — the per-block activity record the
	// durable opportunity log persists for dirtiness priming.
	ChangedPools []string
	// Err is set on Watch streams when one update's scan failed; the
	// stream continues with the next update.
	Err error
}

// ScanVersioned scans one versioned pool update instead of reading the
// Scanner's own pool source — the entry point for feed-driven serving.
// With an unchanged topology the scanner's cache makes this a warm scan:
// cycle enumeration is skipped and only orientation, price fetch, and
// optimization run.
func (s *Scanner) ScanVersioned(ctx context.Context, u PoolUpdate) (VersionedReport, error) {
	start := time.Now()
	rep, err := scan.Run(ctx, u.Pools, s.prices, s.cfg)
	if err != nil {
		return VersionedReport{}, fmt.Errorf("arbloop: scan version %d: %w", u.Version, err)
	}
	return VersionedReport{
		Version:      u.Version,
		Height:       u.Height,
		Report:       rep,
		Elapsed:      time.Since(start),
		ChangedPools: u.ChangedPools,
	}, nil
}

// ScanDelta scans one versioned pool update on the delta path: only
// loops affected by the update's reserve changes (widened by
// Update.ChangedPools when the feed provides it) or by moved CEX prices
// are re-optimized — in parallel across the shards they touch (see
// WithShards); every other result merges from the scanner's previous
// scan. The report — results, ordering, counters — is identical to
// ScanVersioned's full scan of the same update; LoopsReoptimized,
// LoopsReused, and ShardsScanned show the split. The scan transparently
// falls back to a full one whenever the previous state cannot be reused:
// the first scan, a topology change, or WithDeltaScans(false).
//
// Reserve changes are diffed against the scanner's own previous scan,
// not trusted from the update, so coalesced feeds (skipped versions) and
// stale ChangedPools sets cannot produce a wrong report.
func (s *Scanner) ScanDelta(ctx context.Context, u PoolUpdate) (VersionedReport, error) {
	return s.scanUpdate(ctx, u, nil)
}

// scanUpdate runs one versioned scan on the given worker pool (nil:
// spawn per scan) — the delta path when the scanner has a delta engine,
// a full scan otherwise. Watch passes its persistent pool; ScanDelta
// passes none.
func (s *Scanner) scanUpdate(ctx context.Context, u PoolUpdate, workers *scan.Workers) (VersionedReport, error) {
	start := time.Now()
	var rep ScanReport
	var err error
	if s.delta != nil {
		rep, err = s.delta.Scan(ctx, u.Pools, u.ChangedPools, s.prices, workers)
	} else {
		cfg := s.cfg
		cfg.Workers = workers
		rep, err = scan.Run(ctx, u.Pools, s.prices, cfg)
	}
	if err != nil {
		return VersionedReport{}, fmt.Errorf("arbloop: scan version %d: %w", u.Version, err)
	}
	return VersionedReport{
		Version:      u.Version,
		Height:       u.Height,
		Report:       rep,
		Elapsed:      time.Since(start),
		ChangedPools: u.ChangedPools,
	}, nil
}

// Watch subscribes to a pool watcher and re-scans on every update,
// delivering one VersionedReport per consumed update until ctx is
// cancelled or the watcher closes (the channel then closes). Updates
// arriving while a scan is in flight coalesce at the watcher, so emitted
// versions always increase but may skip — a slow strategy never builds a
// backlog of stale blocks. A failed scan arrives with Err set and the
// watch continues; one bad block must not take the service down.
//
// Scans run on the delta path (see ScanDelta): a reserve-only update
// re-optimizes only the loops its dirty pools touch, in parallel across
// their shards. WithDeltaScans(false) restores full scans per update.
//
// Watch keeps one persistent worker pool for its lifetime, so the
// per-block parallel phases reuse parked goroutines instead of spawning
// fresh ones every block; the pool is released when the watch ends.
func (s *Scanner) Watch(ctx context.Context, w *Watcher) <-chan VersionedReport {
	out := make(chan VersionedReport)
	updates, cancel := w.Subscribe()
	pool := scan.NewWorkers(s.cfg.Parallelism)
	go func() {
		defer close(out)
		defer cancel()
		defer pool.Close()
		for {
			select {
			case <-ctx.Done():
				return
			case u, ok := <-updates:
				if !ok {
					return
				}
				vr, err := s.scanUpdate(ctx, u, pool)
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					vr = VersionedReport{Version: u.Version, Height: u.Height, Err: err}
				}
				select {
				case out <- vr:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	return out
}
