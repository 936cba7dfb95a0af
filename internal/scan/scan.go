// Package scan is the whole-market scanning engine behind the public
// arbloop.Scanner: build the token graph from a pool source, enumerate
// candidate cycles once, keep the profitable orientations, fetch every
// needed CEX price in one batched call, and fan the per-loop optimization
// out over a bounded worker pool. Detection is sequential (it is a single
// graph traversal); optimization is the hot loop the paper's §VII runtime
// table measures, and parallelizes perfectly because loops are
// independent.
//
// Detection itself is split in two phases. The *topology* phase — cycle
// enumeration over the token graph — depends only on which pools exist,
// not on their reserves, and dominates detection cost; Cache memoizes it
// behind a pool-set Fingerprint so a block-driven caller re-enumerates
// only when pools, tokens, or fees actually change. The *state* phase —
// orienting the profitable directions and fetching prices — re-runs on
// every scan because reserves move every block.
package scan

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"arbloop/internal/amm"
	"arbloop/internal/cycles"
	"arbloop/internal/graph"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
)

// errNoPools is preallocated: it is returned from the hot per-block
// path (Delta.Scan), which must not construct errors per call.
var errNoPools = errors.New("scan: no pools to scan")

// ErrStrategyPanic wraps a panic recovered from a Strategy.Optimize
// call. The scan engine contains per-loop panics: the loop is reported
// as failed (Report.Failed, Result.Err) and the rest of the scan
// proceeds — a buggy custom strategy costs one loop, not the process.
// Recovered panics are also counted in Metrics.StrategyPanics.
var ErrStrategyPanic = errors.New("scan: strategy panicked")

// LoopFromDirected converts a detected directed cycle into a strategy
// loop, resolving pools and token keys through the graph.
func LoopFromDirected(g *graph.Graph, d cycles.Directed) (*strategy.Loop, error) {
	// A directed traversal is its own node and pool order walked forward.
	return loopFromCycle(g, cycles.Cycle(d), orientForward)
}

// loopFromCycle builds the strategy loop of cycle c traversed in
// orientation o, walking the cycle's own indices instead of copying the
// traversal out first.
func loopFromCycle(g *graph.Graph, c cycles.Cycle, o int8) (*strategy.Loop, error) {
	hops := make([]strategy.Hop, c.Len())
	for i := range hops {
		node, pool := hopOf(c, o, i)
		hops[i] = strategy.Hop{Pool: g.Pool(pool), TokenIn: g.Node(node)}
	}
	l, err := strategy.NewLoop(hops)
	if err != nil {
		return nil, fmt.Errorf("scan: directed cycle %v: %w", directedFor(c, o), err)
	}
	return l, nil
}

// Config tunes a scan. The zero value scans length-3 loops with the
// MaxMax strategy at GOMAXPROCS parallelism and keeps every profitable
// result. Run and Stream resolve defaults per call; a Delta resolves them
// once, at NewDelta, and keeps them for its life (see Resolve).
type Config struct {
	// MinLen and MaxLen bound the loop length (defaults 3, 3).
	MinLen, MaxLen int
	// Strategy is the per-loop optimizer (default MaxMaxStrategy).
	Strategy strategy.Strategy
	// Parallelism bounds the optimization worker pool (default
	// GOMAXPROCS when resolved).
	Parallelism int
	// MinProfitUSD drops results predicted below this (default 0: keep all
	// non-negative results).
	MinProfitUSD float64
	// TopK truncates the ranked batch report (0 = keep all). Streaming
	// ignores it.
	TopK int
	// MaxCycles caps how many undirected cycles enumeration may return
	// (0 = unlimited). Exceeding the cap fails the scan with
	// cycles.ErrTooMany — the guard that keeps an adversarially dense
	// market from blowing up the serve path's per-block time budget.
	MaxCycles int
	// Cache, when non-nil, memoizes the topology phase (cycle
	// enumeration) keyed by the pool set's Fingerprint and the
	// enumeration bounds, so successive scans over topology-identical
	// pool sets skip enumeration and only re-orient + re-optimize.
	Cache *Cache
	// Shards partitions the cycle set for the delta path (default
	// GOMAXPROCS at NewDelta, fixed for the engine's life): each shard
	// owns the captured state of its cycles, and a delta scan re-orients
	// only the shards whose dirty set is non-empty, in parallel. Full
	// scans ignore it. See shard.go.
	Shards int
	// Workers, when non-nil, runs Run's and Stream's parallel phases on a
	// persistent goroutine pool instead of spawning goroutines per scan.
	// A Delta ignores it and takes its pool per Scan call instead.
	Workers *Workers
	// DisableDelta turns the public Scanner's delta path off (its Watch
	// and ScanDelta fall back to full scans). The engine itself ignores
	// it: Run is always a full scan and a Delta is always delta-capable.
	DisableDelta bool
	// Metrics, when non-nil, receives per-stage latencies, scan/loop
	// counters, per-pool dirtiness EMAs, and per-shard wake-up counts
	// from every scan through this config (see Metrics). Nil disables
	// instrumentation. The writes the engine performs against it on the
	// steady-state delta path are allocation-free.
	Metrics *Metrics
	// StageTimeout bounds each externally-dependent stage of one scan —
	// today the batched CEX price fetch, the one place a scan blocks on
	// an outside service. A hung PriceSource cancels that scan with
	// context.DeadlineExceeded instead of wedging the block loop. 0 (the
	// default) disables the deadline; enabling it moves the price fetch
	// off the allocation-free fast path (context.WithTimeout allocates),
	// so the 7-alloc delta budget is quoted with it off.
	StageTimeout time.Duration
}

// Resolve returns c with every unset field at its default. Parallelism
// and Shards default to the GOMAXPROCS of the call, so a long-lived
// engine resolves once (NewDelta, arbloop.NewScanner) and keeps its
// partition and pool width when GOMAXPROCS later changes.
func (c Config) Resolve() Config {
	if c.MinLen <= 0 {
		c.MinLen = 3
	}
	if c.MaxLen < c.MinLen {
		c.MaxLen = c.MinLen
	}
	if c.Strategy == nil {
		c.Strategy = strategy.MaxMaxStrategy{}
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	return c
}

// Result is one scanned loop: the optimization outcome, or the error that
// kept the strategy from producing one.
type Result struct {
	// Index is the loop's position in detection order — stable across
	// runs and parallelism levels, so results can be compared loop-for-loop.
	Index int
	// Loop is the profitable orientation that was optimized.
	Loop *strategy.Loop
	// Result is the strategy outcome (zero when Err != nil).
	Result strategy.Result
	// Err reports a per-loop optimization failure. The scan keeps going;
	// one degenerate loop must not sink a whole-market pass.
	Err error
}

// Report is the outcome of one batch scan.
type Report struct {
	// Strategy is the name of the optimizer that ran.
	Strategy string
	// Parallelism is the worker-pool width used.
	Parallelism int
	// Tokens and Pools count the scanned graph.
	Tokens, Pools int
	// CyclesExamined counts undirected candidate cycles.
	CyclesExamined int
	// LoopsDetected counts profitable orientations found (before the
	// MinProfitUSD filter).
	LoopsDetected int
	// Failed counts loops whose optimization returned an error; they are
	// absent from Results (stream consumers see them with Err set).
	Failed int
	// TopologyCacheHit reports whether detection reused a cached cycle
	// enumeration (always false when Config.Cache is nil).
	TopologyCacheHit bool
	// LoopsReoptimized counts loops whose Strategy.Optimize actually ran
	// this scan. A full scan re-optimizes every detected loop; a delta
	// scan (Delta.Scan) only the loops touching a dirty pool or a moved
	// price.
	LoopsReoptimized int
	// LoopsReused counts loops merged from the previous scan's results
	// without re-optimization (always 0 for a full scan).
	LoopsReused int
	// ShardsScanned counts the shards whose state was rescanned: every
	// shard on a capture (full) pass through the delta engine, only the
	// dirty ones on a delta scan, 0 for a plain unsharded Run.
	ShardsScanned int
	// Degraded reports that the scan's prices came from a fallback (a
	// circuit-broken source serving last-known-good data — see
	// source.FallbackPriceSource): the results are best-effort, not
	// fresh. Propagated to the wire as ReportJSON's degraded field and
	// into the /v1/healthz status.
	Degraded bool
	// Results is sorted by monetized profit, descending, then by Index;
	// filtered by MinProfitUSD and truncated to TopK. Failed loops are
	// not included (they arrive only on the stream).
	Results []Result
}

// detection is the sequential front half of a scan, shared by Run,
// Stream, and the delta engine's full-capture fallback.
type detection struct {
	graph    *graph.Graph
	top      *topology
	loops    []*strategy.Loop
	orient   []int8  // per cycle: orientNone / orientForward / orientReverse
	loopOf   []int32 // per cycle: loop index, or -1 when not profitable
	prices   strategy.PriceMap
	cacheHit bool
	degraded bool // prices came from a fallback (see Report.Degraded)
}

// Cycle orientations. At most one direction of an undirected cycle can be
// profitable (the two price products multiply to γ^{2k} < 1).
const (
	orientNone    int8 = 0
	orientForward int8 = 1
	orientReverse int8 = -1
)

// orientCycle returns the profitable orientation of a cycle against the
// current reserves, mirroring cycles.ArbitrageLoops (forward tested
// first). Each orientation's price product multiplies the hops in
// traversal order, as cycles.PriceProduct does, so the products are
// bit-identical without materializing either traversal.
func orientCycle(g *graph.Graph, c cycles.Cycle) (int8, error) {
	for _, o := range [...]int8{orientForward, orientReverse} {
		prod := 1.0
		for i := range c.Len() {
			node, pool := hopOf(c, o, i)
			p, err := g.Pool(pool).SpotPrice(g.Node(node))
			if err != nil {
				return orientNone, fmt.Errorf("hop %d: %w", i, err)
			}
			prod *= p
		}
		if prod > 1 {
			return o, nil
		}
	}
	return orientNone, nil
}

// hopOf returns hop i of cycle c traversed in orientation o, as its input
// node and its pool: element i of directedFor(c, o), read in place.
func hopOf(c cycles.Cycle, o int8, i int) (node, pool int) {
	if o == orientReverse {
		k := len(c.Nodes)
		return c.Nodes[(k-i)%k], c.Pools[k-1-i]
	}
	return c.Nodes[i], c.Pools[i]
}

// directedFor returns the directed traversal of a cycle for a non-none
// orientation. Only error messages materialize it.
func directedFor(c cycles.Cycle, o int8) cycles.Directed {
	if o == orientReverse {
		return c.Reverse()
	}
	return c.Forward()
}

// enumerateTopology is the topology phase of detection: the cycle
// enumeration over the token graph, the expensive half of a scan, plus
// the pool→cycle and token→cycle inverted indexes delta scans need. With
// a cache configured it is skipped entirely whenever an earlier scan
// already enumerated a pool set with the same fingerprint and bounds —
// and the cached graph skeleton is rebound to the fresh reserves instead
// of rebuilt, so a warm scan never pays graph construction either.
// pools must already be canonical (Run and Stream canonicalize at entry),
// so cached pool and node indices line up across scans.
func enumerateTopology(pools []*amm.Pool, cfg Config) (*graph.Graph, *topology, bool, error) {
	var key string
	if cfg.Cache != nil {
		key = cacheKey(Fingerprint(pools), cfg)
		if top, ok := cfg.Cache.lookup(key); ok {
			g, err := top.skel.Rebind(pools)
			if err != nil {
				return nil, nil, false, err
			}
			return g, top, true, nil
		}
	}
	g, err := graph.Build(pools)
	if err != nil {
		return nil, nil, false, err
	}
	cs, err := cycles.Enumerate(g, cfg.MinLen, cfg.MaxLen, cfg.MaxCycles)
	if err != nil {
		return nil, nil, false, err
	}
	top := newTopology(g, cs)
	if cfg.Cache != nil {
		cfg.Cache.store(key, top)
	}
	return g, top, false, nil
}

// detect builds the graph, enumerates cycles (topology phase, cached),
// orients the profitable ones, and batch-fetches every price the loops
// need (state phase — reserve-dependent, never cached). pools must be
// canonical.
func detect(ctx context.Context, pools []*amm.Pool, prices source.PriceSource, cfg Config) (*detection, error) {
	if len(pools) == 0 {
		return nil, errNoPools
	}
	m := cfg.Metrics
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	g, top, hit, err := enumerateTopology(pools, cfg)
	if err != nil {
		return nil, err
	}
	cs := top.cycles
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	d := &detection{
		graph:    g,
		top:      top,
		orient:   make([]int8, len(cs)),
		loopOf:   make([]int32, len(cs)),
		cacheHit: hit,
	}
	for ci, c := range cs {
		o, err := orientCycle(g, c)
		if err != nil {
			return nil, err
		}
		d.orient[ci] = o
		d.loopOf[ci] = -1
		if o == orientNone {
			continue
		}
		loop, err := loopFromCycle(g, c, o)
		if err != nil {
			return nil, err
		}
		d.loopOf[ci] = int32(len(d.loops))
		d.loops = append(d.loops, loop)
	}

	if m != nil {
		// Topology + orientation so far; the price fetch is its own stage.
		now := time.Now()
		m.StageOrient.Observe(now.Sub(t0))
		t0 = now
	}
	d.prices, d.degraded, err = fetchPriceSymbols(ctx, prices, top.priceSymbols(nil, d.loopOf), cfg.StageTimeout)
	if err != nil {
		return nil, err
	}
	if m != nil {
		m.StagePrices.Observe(time.Since(t0))
	}
	return d, nil
}

// fetchPriceSymbols batch-fetches prices for a sorted symbol list
// (topology.priceSymbols). The source must treat the slice as read-only:
// the delta path passes its scratch slice.
//
// This is the scan's one externally-blocking stage, so the containment
// hooks live here: a positive timeout puts a deadline on the call
// (Config.StageTimeout — a hung source fails this scan, not the
// process), and a source implementing source.FallbackPriceSource may
// answer degraded (last-known-good data), which flags the whole report
// (Report.Degraded). The fetched map is also validated: a NaN or
// negative price is a failed fetch, never input to the solver.
func fetchPriceSymbols(ctx context.Context, prices source.PriceSource, symbols []string, timeout time.Duration) (strategy.PriceMap, bool, error) {
	if len(symbols) == 0 {
		return strategy.PriceMap{}, false, nil
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var (
		fetched  map[string]float64
		degraded bool
		err      error
	)
	if fb, ok := prices.(source.FallbackPriceSource); ok {
		fetched, degraded, err = fb.PricesFallback(ctx, symbols)
	} else {
		fetched, err = prices.Prices(ctx, symbols)
	}
	if err == nil {
		err = source.ValidatePrices(fetched)
	}
	if err != nil {
		return nil, false, fmt.Errorf("scan: fetch prices: %w", err)
	}
	return strategy.PriceMap(fetched), degraded, nil
}

// fanOut optimizes the loops named by jobs (indices into loops) over a
// bounded worker pool, delivering one Result per job to emit (in
// arbitrary order). Dispatch is chunked: workers pull job indices from a
// shared atomic cursor instead of receiving one unbuffered-channel send
// per loop, so per-loop dispatch costs one atomic add and the p=2
// scaling cliff of the channel feeder is gone. It returns early when the
// context is cancelled; unprocessed jobs are skipped.
func fanOut(ctx context.Context, loops []*strategy.Loop, pm strategy.PriceMap, jobsList []int, cfg Config, emit func(Result) bool) {
	if len(jobsList) == 0 {
		return
	}
	// Never run more workers than jobs: the delta path's job list is
	// routinely a handful of loops (or none) on the per-block hot path.
	workers := cfg.Parallelism
	if len(jobsList) < workers {
		workers = len(jobsList)
	}
	if workers <= 1 {
		for _, i := range jobsList {
			if ctx.Err() != nil {
				return
			}
			res, err := optimizeOne(ctx, cfg.Strategy, loops[i], pm, cfg.Metrics)
			if !emit(Result{Index: i, Loop: loops[i], Result: res, Err: err}) {
				return
			}
		}
		return
	}

	var (
		stopped atomic.Bool // a consumer rejected further results
		emitMu  sync.Mutex
	)
	forEachIndex(ctx, cfg.Workers, workers, len(jobsList), func(k int) bool {
		if stopped.Load() {
			return false
		}
		i := jobsList[k]
		res, err := optimizeOne(ctx, cfg.Strategy, loops[i], pm, cfg.Metrics)
		r := Result{Index: i, Loop: loops[i], Result: res, Err: err}
		emitMu.Lock()
		ok := stopped.Load() || emit(r)
		emitMu.Unlock()
		if !ok {
			stopped.Store(true)
			return false
		}
		return true
	})
}

// optimizeInto is the batch counterpart of fanOut: it optimizes the
// loops named by jobs and writes each outcome to out[job] directly. Job
// indices are distinct, so workers need no emit lock, and the
// single-worker path runs inline — zero allocations per loop and zero
// per scan. Unprocessed jobs are left zero when ctx is cancelled. pool,
// when non-nil, runs the parallel path on persistent goroutines.
func optimizeInto(ctx context.Context, loops []*strategy.Loop, pm strategy.PriceMap, jobsList []int, out []Result, cfg Config, pool *Workers) {
	if len(jobsList) == 0 {
		return
	}
	workers := cfg.Parallelism
	if len(jobsList) < workers {
		workers = len(jobsList)
	}
	if workers <= 1 {
		for _, i := range jobsList {
			if ctx.Err() != nil {
				return
			}
			res, err := optimizeOne(ctx, cfg.Strategy, loops[i], pm, cfg.Metrics)
			out[i] = Result{Index: i, Loop: loops[i], Result: res, Err: err}
		}
		return
	}
	forEachIndex(ctx, pool, workers, len(jobsList), func(k int) bool {
		i := jobsList[k]
		res, err := optimizeOne(ctx, cfg.Strategy, loops[i], pm, cfg.Metrics)
		out[i] = Result{Index: i, Loop: loops[i], Result: res, Err: err}
		return true
	})
}

// optimizeOne runs the strategy on one loop. A panic inside the strategy
// is contained here — the innermost frame the engine owns, inside the
// pooled worker goroutines, so a panicking custom strategy fails its
// loop (ErrStrategyPanic) instead of killing a Workers goroutine and the
// process with it. A result whose profit is not finite fails its loop
// the same way. The deferred recover is open-coded by the compiler
// (one defer, not in a loop) and allocates only on the panic path, so
// the steady-state delta budget is unchanged with containment enabled.
func optimizeOne(ctx context.Context, s strategy.Strategy, l *strategy.Loop, pm strategy.PriceMap, m *Metrics) (res strategy.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if m != nil {
				m.StrategyPanics.Inc()
			}
			res = strategy.Result{}
			err = fmt.Errorf("%w: %v", ErrStrategyPanic, r)
		}
	}()
	res, err = s.Optimize(ctx, l, pm)
	// Ranked, a NaN profit would pass the MinProfitUSD filter (NaN < x is
	// false) and make the whole report unencodable as JSON.
	if err == nil && !(math.Abs(res.Monetized) <= math.MaxFloat64) {
		return strategy.Result{}, fmt.Errorf("scan: strategy returned a non-finite profit %g", res.Monetized)
	}
	return res, err
}

// allJobs returns [0, n) — the job list of a full scan.
func allJobs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// assembleReport turns the complete per-loop result set (all[i] is loop
// i's outcome, so all[i].Index == i; failures included, unfiltered) into
// the ranked batch report, applying the systemic-failure check, the
// MinProfitUSD filter, ranking, and TopK truncation. keys is the caller's
// reusable ranking buffer. reoptimized + reused must equal len(all).
func assembleReport(d *detection, cfg Config, all []Result, keys *[]rankKey, reoptimized, reused int) (Report, error) {
	failed, firstFailed := 0, -1
	ranked := (*keys)[:0]
	for i := range all {
		r := &all[i]
		if r.Err != nil {
			failed++
			if firstFailed < 0 {
				firstFailed = i
			}
			continue
		}
		if r.Result.Monetized < cfg.MinProfitUSD {
			continue
		}
		ranked = append(ranked, rankKey{profit: r.Result.Monetized, index: i})
	}
	*keys = ranked
	if failed > 0 && failed == len(all) {
		// Every loop failed — a systemic cause (e.g. a price-map hole);
		// surface it rather than an empty report. Partial failures are
		// reported via Failed so callers can decide, and cost no error
		// formatting.
		r := &all[firstFailed]
		return Report{}, fmt.Errorf("scan: loop %s: %w", r.Loop, r.Err)
	}

	ranked = rankTop(ranked, cfg.TopK)
	results := make([]Result, len(ranked))
	for j, k := range ranked {
		results[j] = all[k.index]
	}
	if d.degraded && cfg.Metrics != nil {
		cfg.Metrics.DegradedScans.Inc()
	}
	return Report{
		Strategy:         cfg.Strategy.Name(),
		Parallelism:      cfg.Parallelism,
		Tokens:           d.graph.NumNodes(),
		Pools:            d.graph.NumEdges(),
		CyclesExamined:   len(d.top.cycles),
		LoopsDetected:    len(d.loops),
		Failed:           failed,
		TopologyCacheHit: d.cacheHit,
		LoopsReoptimized: reoptimized,
		LoopsReused:      reused,
		Degraded:         d.degraded,
		Results:          results,
	}, nil
}

// rankKey is one rankable result: its profit and its index in the
// per-loop result set. Ranking sorts these pointer-free 16-byte keys
// instead of whole Results, so a swap moves no pointers and needs no
// write barrier.
type rankKey struct {
	profit float64
	index  int
}

// compareKeys is the report's order: profit descending (±0 tie), then
// index. Profits are finite: optimizeOne fails a non-finite one.
func compareKeys(a, b rankKey) int {
	if c := cmp.Compare(b.profit, a.profit); c != 0 {
		return c
	}
	return a.index - b.index
}

// rankTop orders keys in place and returns the best topK of them (all of
// them when topK is 0): it sorts the first topK keys, then inserts each
// later key that beats the last kept one. Indices are distinct, so the
// order is total and the result does not depend on the input order.
func rankTop(keys []rankKey, topK int) []rankKey {
	n := len(keys)
	if topK > 0 && topK < n {
		n = topK
	}
	top := keys[:n]
	slices.SortFunc(top, compareKeys)
	for _, k := range keys[n:] {
		if compareKeys(k, top[n-1]) >= 0 {
			continue
		}
		i, _ := slices.BinarySearchFunc(top, k, compareKeys)
		copy(top[i+1:], top[i:n-1])
		top[i] = k
	}
	return top
}

// Run scans the pool set once and returns the ranked batch report.
func Run(ctx context.Context, pools []*amm.Pool, prices source.PriceSource, cfg Config) (Report, error) {
	cfg = cfg.Resolve()
	m := cfg.Metrics
	var start, t time.Time
	if m != nil {
		start = time.Now()
		m.FullScans.Inc()
	}
	d, err := detect(ctx, Canonicalize(pools), prices, cfg)
	if err != nil {
		return Report{}, err
	}
	if m != nil {
		t = time.Now()
	}
	all := collectAll(ctx, d, cfg, cfg.Workers)
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	if m != nil {
		m.StageOptimize.Observe(time.Since(t))
		m.LoopsReoptimized.Add(uint64(len(d.loops)))
	}
	var keys []rankKey
	rep, err := assembleReport(d, cfg, all, &keys, len(d.loops), 0)
	if m != nil && err == nil {
		m.ScanTotal.Observe(time.Since(start))
	}
	return rep, err
}

// collectAll runs the optimization fan-out over every detected loop and
// returns the complete result set indexed by loop.
func collectAll(ctx context.Context, d *detection, cfg Config, pool *Workers) []Result {
	all := make([]Result, len(d.loops))
	optimizeInto(ctx, d.loops, d.prices, allJobs(len(d.loops)), all, cfg, pool)
	return all
}

// Stream scans the pool set and delivers per-loop results as they are
// produced, in completion order (use Result.Index to re-sequence). The
// channel closes when the scan finishes or the context is cancelled. A
// detection-stage failure arrives as a single Result with Err set and a
// nil Loop.
func Stream(ctx context.Context, pools []*amm.Pool, prices source.PriceSource, cfg Config) <-chan Result {
	cfg = cfg.Resolve()
	out := make(chan Result)
	go func() {
		defer close(out)
		d, err := detect(ctx, Canonicalize(pools), prices, cfg)
		if err != nil {
			select {
			case out <- Result{Index: -1, Err: err}:
			case <-ctx.Done():
			}
			return
		}
		fanOut(ctx, d.loops, d.prices, allJobs(len(d.loops)), cfg, func(r Result) bool {
			if r.Err == nil && r.Result.Monetized < cfg.MinProfitUSD {
				return true
			}
			select {
			case out <- r:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}()
	return out
}
