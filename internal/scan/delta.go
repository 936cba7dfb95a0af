// Delta scanning: the block-after-block fast path. Between consecutive
// blocks only a handful of pools actually trade, yet a full scan
// re-optimizes every detected loop. A Delta re-optimizes only the loops
// touching a *dirty* pool (reserves moved) or a moved CEX price, and
// merges everything else from the previous scan's outcomes — producing
// a report identical to a full scan over the same state.
//
// Correctness rests on three facts:
//
//   - A cycle whose pools all kept their reserves keeps its profitable
//     orientation (the price product is a function of reserves and fees
//     only), so the detected loop set changes only through dirty cycles.
//   - A loop whose pools and token prices are all unchanged re-optimizes
//     to the identical Result (strategies are deterministic functions of
//     the loop reserves and the price map).
//   - Pool sets are canonicalized before anything else, so pool and node
//     indices — and therefore the cached inverted indexes and hop
//     programs — are stable across scans with equal topologies.
//
// A delta scan computes on indices. Each cycle is compiled once per
// topology into a hop program (cache.go), through which orientation
// reads reserves; a built-in strategy solves a re-optimized loop through
// its kernel (strategy.SolveHops) on that program and a per-node price
// vector built once per scan, keeping only the profit, error and plan.
// Ranking needs no more. Only the loops the report keeps get a Loop and
// a Result (strategy.Materialize), built from the stored plan without
// solving again and cached until the loop re-optimizes. Any other
// strategy is adapted through Optimize on a freshly built Loop, and its
// Result is kept as the loop's served form. Run and Stream keep calling
// Optimize, so the delta = full tests cross-check the two paths bit for
// bit, the capture included.
//
// The engine keeps one captured state (state.go): each cycle's
// orientation and outcome, the plans, the served forms and the reserves
// it was captured at, in a few slabs of values. A scan that changes
// anything copies the committed state into the state the previous commit
// retired (a fresh one when there is none) and re-orients and
// re-optimizes the affected cycles inline, in one strategy.Workspace:
// with the exact convex solve at about 1 µs per loop a dirty scan is tens
// of microseconds of math, which a per-block fan-out over goroutines did
// not speed up (ROADMAP item 4). A capture is the same scan from an
// empty state, every pool dirty, so it re-optimizes every loop inline
// too; only Run and Stream fan out (Config.Parallelism).
//
// The per-block path is also on an allocation diet: the topology check
// compares pool metadata field-by-field instead of hashing a
// fingerprint, the graph is rebound to fresh reserves instead of
// rebuilt, the price symbols are the topology's sorted tokens filtered
// to this scan's loops, ranking sorts (profit, index) keys and serves
// only the TopK results it keeps, and every per-scan slice lives in a
// reusable scratch arena carried by the Delta, so a steady-state delta
// scan touches the allocator a fixed handful of times regardless of
// market size.
//
// The dirty set is computed by diffing reserves against the previous
// scan's (authoritative, O(pools)), optionally widened by a caller-
// provided hint such as feed.Update.ChangedPools; prices are re-fetched
// every scan and diffed the same way, so a moved CEX price re-optimizes
// exactly the loops it touches. A Delta is bound at construction to one
// resolved config, so its strategy and loop bounds cannot change under a
// captured baseline: the previous state is unusable only on the first
// scan or after a topology change, and then Scan captures fresh state,
// scanning from an empty one.
package scan

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"arbloop/internal/amm"
	"arbloop/internal/graph"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
)

// Delta is the delta engine: one scanner's memory between scans — the
// topology it scanned, the prices it scanned at, and the captured state
// (per-cycle outcomes and the reserves they were computed from) — bound
// to the config NewDelta resolved. The first Scan captures it, scanning
// from an empty state. Safe for concurrent use: the mutex guards only the
// in-memory baseline snapshot, the scratch-arena checkout, and commit —
// never the price fetch or the optimization, so a slow scan (hung
// PriceSource, heavy strategy) cannot stall other scans on the same
// engine. Concurrent scans each compute against the baseline they
// snapshotted — any committed baseline is a self-consistent (reserves,
// prices, outcomes) capture, so last-writer-wins is correct and the next
// diff simply runs against whichever baseline landed.
type Delta struct {
	// cfg is resolved once by NewDelta and never changes, which is what
	// lets a baseline outlive the scan that captured it.
	cfg Config
	// kernel is cfg.Strategy's kernel, nil for a strategy from outside
	// package strategy.
	kernel strategy.Kernel
	mu     sync.Mutex
	valid  bool
	base   baseline
	// scr is the reusable scratch arena. At most one scan holds it at a
	// time; a concurrent scan that finds it checked out allocates a
	// fresh one (rare — the steady state is one scan per block).
	scr *scratch
	// inflight counts the scans between begin and end.
	inflight int
	// lifetime counters (under mu).
	fullScans, deltaScans, stateScans uint64
}

// NewDelta builds a delta engine bound to cfg, resolving its defaults
// once. It scans inline and only echoes Parallelism, by default the
// GOMAXPROCS of this call, in Report.Parallelism.
func NewDelta(cfg Config) *Delta {
	d := &Delta{cfg: cfg.Resolve()}
	d.kernel, _ = d.cfg.Strategy.(strategy.Kernel)
	return d
}

// poolMeta is the topology identity of one canonical pool — everything
// the Fingerprint hashes, kept unhashed so the per-block topology check
// is a field compare instead of a SHA-256 pass.
type poolMeta struct {
	id, token0, token1 string
	fee                float64
}

// baseline is one captured scan, immutable once committed except for its
// state's served-form cache: every field is replaced wholesale by
// commit, never mutated in place, so readers holding a snapshot need no
// lock.
type baseline struct {
	top *topology
	// meta is the canonical pool set's topology identity at capture.
	meta []poolMeta
	// prices is the price map the captured results were monetized with.
	prices strategy.PriceMap
	// state holds the captured per-cycle outcomes and reserves.
	state *deltaState
}

// begin snapshots the current baseline without judging usability — the
// caller checks the topology against its own pools — and checks out the
// scratch arena (a fresh one when another scan holds it). The scan is in
// flight until end returns the arena.
func (d *Delta) begin() (b baseline, ok bool, scr *scratch) {
	d.mu.Lock()
	b, ok, scr = d.base, d.valid, d.scr
	d.scr = nil
	d.inflight++
	d.mu.Unlock()
	if scr == nil {
		scr = &scratch{}
	}
	return b, ok, scr
}

// end returns the scan's arena. A copy-on-write state still in next was
// never committed, so no other scan saw it: it becomes the spare.
func (d *Delta) end(scr *scratch) {
	if scr.next != nil {
		scr.spare, scr.next = scr.next, nil
	}
	d.mu.Lock()
	d.scr = scr
	d.inflight--
	d.mu.Unlock()
}

// deltaEntry is one cycle's captured state: its orientation and, when
// that is profitable, its loop's outcome — the profit the loop ranks by
// or the error it failed with, and, for a built-in strategy, its plan's
// start token (its plan and served form live beside it, in deltaState).
type deltaEntry struct {
	profit float64
	err    error
	start  int32
	orient int8
}

// DeltaStats counts how a Delta resolved its scans: on the fast path or
// through the full-scan fallback, and how many of them rescanned the
// captured state.
type DeltaStats struct {
	FullScans, DeltaScans uint64
	// ShardsScanned counts the committed scans that rescanned the
	// captured state (Report.ShardsScanned 1): every capture, and every
	// delta scan that re-oriented or re-optimized a loop. A delta scan
	// that found nothing to redo adds 0.
	ShardsScanned uint64
	// Shards is 1 once a state is captured (0 before the first capture):
	// the engine keeps one state, and the field keeps its wire name.
	Shards int
}

// bump records one resolution. Takes the lock itself.
func (d *Delta) bump(full bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if full {
		d.fullScans++
	} else {
		d.deltaScans++
	}
}

// Stats returns the engine's lifetime counters.
func (d *Delta) Stats() DeltaStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := DeltaStats{FullScans: d.fullScans, DeltaScans: d.deltaScans, ShardsScanned: d.stateScans}
	if d.valid {
		s.Shards = 1
	}
	return s
}

// usable reports whether the captured baseline can serve a delta scan of
// the given canonical pools: an identical pool topology, metadata
// compared field-by-field (the allocation-free equivalent of a
// fingerprint match). Strategy and bounds need no check — the engine's
// config cannot change under its baseline.
func (b *baseline) usable(pools []*amm.Pool) bool {
	if len(pools) != len(b.meta) {
		return false
	}
	for i, p := range pools {
		m := &b.meta[i]
		if p.ID != m.id || p.Token0 != m.token0 || p.Token1 != m.token1 || p.Fee != m.fee {
			return false
		}
	}
	return true
}

// scratch is the reusable per-scan arena: every slice the delta fast
// path needs, sized once and recycled block after block so the
// steady-state scan performs no per-item allocation. Nothing in here
// but the spare state outlives the scan that holds it — state that must
// survive (entries, plans, reserves) is written into the copy-on-write
// state instead.
type scratch struct {
	dirtyPool  []bool // per canonical pool
	dirtyCycle []bool // per cycle
	// next is this scan's copy-on-write state, nil until the scan first
	// writes (until then it reads the baseline's).
	next *deltaState
	// spare is a state no baseline references any more, reused as the
	// next copy-on-write target so a scan that writes does not allocate
	// its state afresh.
	spare     *deltaState
	loopIdx   []int32 // per cycle: loop index this scan, or -1
	loopCycle []int   // per loop: owning cycle
	reopt     []bool  // per loop: must re-optimize
	jobs      []int
	symbols   []string
	// prices is this scan's price map laid out by token index.
	prices strategy.NodePrices
	// ws is the kernel workspace every solve and served form of the scan
	// is computed in.
	ws strategy.Workspace
	// keys is the ranking buffer.
	keys []rankKey
	// det is the report-assembly view of the scan, rebuilt in place each
	// block so the steady-state path does not heap-allocate a detection.
	det detection
}

// growSlice returns s resized to n, reallocating only when capacity is
// short, and then with append's headroom, so a loop count that creeps up
// block after block does not reallocate on every new high. Contents are
// unspecified.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return slices.Grow(s[:0], n)[:n]
	}
	return s[:n]
}

// reset prepares the arena for one scan over nPools pools and nCycles
// cycles.
func (s *scratch) reset(nPools, nCycles int) {
	s.dirtyPool = growSlice(s.dirtyPool, nPools)
	clear(s.dirtyPool)
	s.dirtyCycle = growSlice(s.dirtyCycle, nCycles)
	clear(s.dirtyCycle)
	s.loopIdx = growSlice(s.loopIdx, nCycles)
	s.loopCycle = s.loopCycle[:0]
	s.reopt = s.reopt[:0]
	s.jobs = s.jobs[:0]
	s.symbols = s.symbols[:0]
}

// write returns the state this scan writes: on its first write, a copy
// of the baseline's, made into the spare when there is one.
func (s *scratch) write(base *baseline) *deltaState {
	if s.next == nil {
		s.next, s.spare = copyState(s.spare, base.state), nil
	}
	return s.next
}

// read returns the state this scan reads: its copy-on-write state once
// it has written, the baseline's before.
func (s *scratch) read(base *baseline) *deltaState {
	if s.next != nil {
		return s.next
	}
	return base.state
}

// Scan scans the pool set, re-optimizing only the loops affected by
// reserve or price changes since the engine's previous scan and merging
// the rest from the captured results. The report is identical — results,
// ordering, counters — to a full Run over the same pools and prices
// under the engine's config, except that TopologyCacheHit reflects the
// delta path and LoopsReoptimized/LoopsReused/ShardsScanned expose the
// work split.
//
// hint optionally names pools the caller already knows changed (e.g.
// feed.Update.ChangedPools); it widens the self-computed dirty set and is
// never trusted to narrow it, so a stale or incomplete hint — coalesced
// feed updates, a skipped version — cannot produce a wrong report.
//
// Without a usable baseline — the first scan, or a changed topology —
// Scan captures: the same scan from an empty baseline (see empty), every
// pool dirty and no price known, so every loop re-optimizes. A capture
// counts as a full scan.
//
// Scan is the steady-state per-block path, pinned to a ~7-alloc
// budget (TestDeltaScanAllocBudget, TestTelemetryScanAllocs). Every
// deliberate allocation below carries an //arblint:ignore with its
// reason; anything new must either ride the scratch arena or justify
// itself the same way.
//
//arblint:hotpath
func (d *Delta) Scan(ctx context.Context, pools []*amm.Pool, hint []string, prices source.PriceSource) (Report, error) {
	pools = Canonicalize(pools)
	if len(pools) == 0 {
		return Report{}, errNoPools
	}

	base, ok, scr := d.begin()
	defer d.end(scr)
	full := !ok || !base.usable(pools)
	d.bump(full)
	m := d.cfg.Metrics
	var start, t time.Time
	timed := false
	if m != nil {
		if full {
			m.FullScans.Inc()
		} else {
			m.DeltaScans.Inc()
		}
		// One clock read per scan keeps the dirtiness EMA gap exact; the
		// per-stage boundary reads below are taken on every capture and
		// sampled on delta scans (see StageSample).
		timed = full || m.timedScan()
		start = time.Now()
		t = start
	}

	var (
		g   *graph.Graph
		hit = true
		err error
	)
	if full {
		g, hit, err = d.empty(&base, scr, pools)
	} else {
		g, err = base.top.skel.Rebind(pools)
	}
	if err != nil {
		return Report{}, err
	}
	top := base.top

	scr.reset(len(pools), len(top.cycles))

	// Dirty pools: a capture has no reserves to diff against, so every
	// pool is dirty. Otherwise the reserve diff against the captured
	// baseline is authoritative; the hint can only widen it.
	dirtyPools := 0
	if full {
		for i := range scr.dirtyPool {
			scr.dirtyPool[i] = true
		}
		dirtyPools = len(pools)
	} else {
		captured := base.state.reserves
		for i, p := range pools {
			if p.Reserve0 != captured[i][0] || p.Reserve1 != captured[i][1] {
				scr.dirtyPool[i] = true
				dirtyPools++
			}
		}
		for _, id := range hint {
			if i, ok := top.poolIndex[id]; ok && !scr.dirtyPool[i] {
				scr.dirtyPool[i] = true
				dirtyPools++
			}
		}
		if m != nil {
			m.DirtyPools.Add(uint64(dirtyPools))
			m.observeDirtiness(scr.dirtyPool, dirtyPools, start)
		}
	}

	// Re-orient every cycle routing through a dirty pool (its price
	// product moved), found through the inverted index, against the fresh
	// reserves through its hop program. The first one copies the
	// baseline's state (copy-on-write). No loop is built: a loop is a
	// Loop only once it is served.
	for pi, dirty := range scr.dirtyPool {
		if !dirty {
			continue
		}
		for _, ci := range top.poolCycles[pi] {
			if scr.dirtyCycle[ci] {
				continue
			}
			scr.dirtyCycle[ci] = true
			st := scr.write(&base)
			o := top.orient(pools, ci)
			if st.entries[ci] = (deltaEntry{orient: o}); o == orientNone {
				st.served[ci].Store(nil) // drop the stale capture
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}

	// Number the detected loops in cycle order — exactly the order a full
	// scan detects in.
	st := scr.read(&base)
	for ci := range top.cycles {
		if st.entries[ci].orient == orientNone {
			scr.loopIdx[ci] = -1
			continue
		}
		scr.loopIdx[ci] = int32(len(scr.loopCycle))
		scr.loopCycle = append(scr.loopCycle, ci)
		scr.reopt = append(scr.reopt, scr.dirtyCycle[ci])
	}
	loops := len(scr.loopCycle)

	if timed {
		now := time.Now()
		m.StageOrient.Observe(now.Sub(t))
		t = now
	}

	// Prices are re-fetched every scan (one batched call, the same set a
	// full scan would fetch). A moved price re-optimizes every loop
	// touching the token — cached Monetized values are stale for it. A
	// price that vanished moved, whatever it was before.
	scr.symbols = top.priceSymbols(scr.symbols, scr.loopIdx)
	pm, degraded, err := fetchPriceSymbols(ctx, prices, scr.symbols, d.cfg.StageTimeout)
	if err != nil {
		return Report{}, err
	}
	priceMoved := false
	for _, tok := range scr.symbols {
		old, ok := base.prices[tok]
		if cur, ok2 := pm[tok]; ok && ok2 && old == cur {
			continue
		}
		priceMoved = true
		for _, ci := range top.tokenCycles[tok] {
			if li := scr.loopIdx[ci]; li >= 0 {
				scr.reopt[li] = true
			}
		}
	}
	scr.prices.Reset(pm, top.tokens)
	if timed {
		now := time.Now()
		m.StagePrices.Observe(now.Sub(t))
		t = now
	}

	// Re-optimize the affected loops into the copy-on-write state; every
	// other loop keeps its captured outcome.
	for li, reopt := range scr.reopt {
		if reopt {
			scr.jobs = append(scr.jobs, li)
		}
	}
	if len(scr.jobs) > 0 {
		d.reoptimize(ctx, scr, scr.write(&base), top, pools, pm)
	}
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	if m != nil {
		m.LoopsReoptimized.Add(uint64(len(scr.jobs)))
		m.LoopsReused.Add(uint64(loops - len(scr.jobs)))
		if timed {
			now := time.Now()
			m.StageOptimize.Observe(now.Sub(t))
			t = now
		}
	}
	// The state was rescanned exactly when a loop re-oriented or
	// re-optimized, which is when the scan first wrote it (a capture
	// writes from the start, even on a market without a cycle).
	scanned := 0
	if scr.next != nil {
		scanned = 1
	}

	// Rank every detected loop by its entry, then serve the kept ones:
	// only they get a Loop and a Result, built once and cached on the
	// entry until its loop re-optimizes.
	st = scr.read(&base)
	failed, firstFailed := 0, -1
	ranked := scr.keys[:0]
	for li, ci := range scr.loopCycle {
		e := &st.entries[ci]
		if e.err != nil {
			failed++
			if firstFailed < 0 {
				firstFailed = li
			}
			continue
		}
		if e.profit < d.cfg.MinProfitUSD {
			continue
		}
		ranked = append(ranked, rankKey{profit: e.profit, index: li})
	}
	scr.keys = ranked
	if failed > 0 && failed == loops {
		ci := scr.loopCycle[firstFailed]
		first := &st.entries[ci]
		//arblint:ignore hotpath systemic-failure branch only: the scan fails, and the first failed loop is built to name it
		return Report{}, systemicError(strategy.LoopFromHops(pools, top.hops(ci, first.orient), top.tokens), first.err)
	}
	// The detection view lives in the scratch arena, not on the heap.
	scr.det = detection{graph: g, top: top, cacheHit: hit, degraded: degraded}
	rep, ranked := scr.det.report(d.cfg, ranked, loops, failed, len(scr.jobs), loops-len(scr.jobs))
	for j, k := range ranked {
		ci := scr.loopCycle[k.index]
		sf, err := d.served(scr, st, top, pools, ci)
		if err != nil {
			return Report{}, err
		}
		rep.Results[j] = Result{Index: k.index, Loop: sf.Loop, Result: sf.Result}
	}
	rep.ShardsScanned = scanned

	// Commit the new baseline only after a fully successful scan, so a
	// failed pass leaves the previous (still self-consistent) state for
	// the next diff. A no-op scan (nothing dirty, no price moved)
	// commits nothing — the baseline is already exact. A capture always
	// commits: every pool is dirty.
	if dirtyPools > 0 || priceMoved {
		st = scr.write(&base)
		for i, p := range pools {
			st.reserves[i] = [2]float64{p.Reserve0, p.Reserve1}
		}
		next := base
		next.prices, next.state = pm, st
		if d.commitBase(next, scanned) {
			scr.spare = base.state // nil after a capture
		}
		scr.next = nil // the baseline's now
	}
	if full && m != nil {
		m.capture(pools)
	}
	if timed {
		now := time.Now()
		m.StageCommit.Observe(now.Sub(t))
		m.ScanTotal.Observe(now.Sub(start))
	}
	return rep, nil
}

// reoptimize runs the strategy on each job loop and writes the outcome
// into its cycle's entry in st: a built-in strategy through its kernel,
// which stores the plan and builds nothing, any other through Optimize
// on a freshly built Loop, whose Result is the served form. Panics are
// contained as optimizeOne contains them.
//
//arblint:hotpath
func (d *Delta) reoptimize(ctx context.Context, scr *scratch, st *deltaState, top *topology, pools []*amm.Pool, pm strategy.PriceMap) {
	for _, li := range scr.jobs {
		if ctx.Err() != nil {
			return
		}
		ci := scr.loopCycle[li]
		e := &st.entries[ci]
		hops := top.hops(ci, e.orient)
		var sf *strategy.Served
		if d.kernel != nil {
			var start int
			start, e.profit, e.err = solveOne(d.kernel, &scr.ws, pools, hops, &scr.prices, st.plan(top, ci), d.cfg.Metrics)
			e.start = int32(start)
		} else {
			loop := strategy.LoopFromHops(pools, hops, top.tokens)
			res, err := optimizeOne(ctx, d.cfg.Strategy, loop, pm, d.cfg.Metrics)
			e.profit, e.err = res.Monetized, err
			if err == nil {
				//arblint:ignore hotpath a strategy from outside package strategy has no kernel: its Result is the served form, kept with the entry
				sf = &strategy.Served{Loop: loop, Result: res}
			}
		}
		st.served[ci].Store(sf)
	}
}

// solveOne is optimizeOne for a built-in strategy's kernel: a panic fails
// the loop with ErrStrategyPanic instead of the process.
func solveOne(k strategy.Kernel, ws *strategy.Workspace, pools []*amm.Pool, hops []strategy.HopIndex, np *strategy.NodePrices, plan []float64, m *Metrics) (start int, profit float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			if m != nil {
				m.StrategyPanics.Inc()
			}
			start, profit, err = 0, 0, fmt.Errorf("%w: %v", ErrStrategyPanic, r)
		}
	}()
	return strategy.SolveHops(k, ws, pools, hops, np, plan)
}

// served returns cycle ci's served form in st, building it from the
// entry's plan (strategy.Materialize) and caching it on the entry when
// the loop has none yet. Only a built-in strategy's entries lack one.
func (d *Delta) served(scr *scratch, st *deltaState, top *topology, pools []*amm.Pool, ci int) (*strategy.Served, error) {
	if sf := st.served[ci].Load(); sf != nil {
		return sf, nil
	}
	e := &st.entries[ci]
	sf, err := strategy.Materialize(&scr.ws, d.kernel.Name(), pools, top.hops(ci, e.orient), &scr.prices, st.plan(top, ci), int(e.start))
	if err != nil {
		return nil, err
	}
	st.served[ci].Store(sf)
	return sf, nil
}

// empty makes base the baseline a capture scans from: the topology of
// pools, enumerated through the engine's cache (hit reports a cache
// hit), the pools' metadata, no prices and no state. In place of a copy
// of a committed state the capture writes a zeroed one, its plan slab
// sized when the strategy has a kernel; the spare, sized for the
// topology being replaced, is dropped. pools must be canonical.
func (d *Delta) empty(base *baseline, scr *scratch, pools []*amm.Pool) (*graph.Graph, bool, error) {
	g, top, hit, err := enumerateTopology(pools, d.cfg)
	if err != nil {
		return nil, false, err
	}
	meta := make([]poolMeta, len(pools))
	for i, p := range pools {
		meta[i] = poolMeta{id: p.ID, token0: p.Token0, token1: p.Token1, fee: p.Fee}
	}
	*base = baseline{top: top, meta: meta}
	plans := 0
	if d.kernel != nil {
		plans = int(top.planOff[len(top.cycles)])
	}
	scr.next, scr.spare = newDeltaState(len(top.cycles), plans, len(pools)), nil
	return g, hit, nil
}

// commitBase replaces the captured baseline with a freshly built one
// (its state a fresh copy — nothing a concurrent snapshot holds is
// mutated). Takes the lock itself. It reports whether the committing
// scan is the only one in flight: then no scan holds a snapshot with the
// state the commit replaced, and none ever will, so it may be reused as
// the spare. With another scan in flight it may not: that scan may still
// be reading it.
func (d *Delta) commitBase(b baseline, scanned int) (alone bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.valid = true
	d.base = b
	d.stateScans += uint64(scanned)
	return d.inflight == 1
}
