// Delta scanning: the block-after-block fast path. Between consecutive
// blocks only a handful of pools actually trade, yet a full scan
// re-optimizes every detected loop. A Delta re-runs Strategy.Optimize
// only for loops touching a *dirty* pool (reserves moved) or a moved CEX
// price, and merges everything else from the previous scan's results —
// producing a report identical to a full scan over the same state.
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
//     indices — and therefore the cached inverted indexes — are stable
//     across scans with equal topologies.
//
// The engine is sharded (see shard.go): the cycle set is partitioned
// once per captured topology, each shard owns the captured per-cycle
// state for its cycles, and a scan touches only the shards whose dirty
// set is non-empty — re-orienting them in parallel and committing
// copy-on-write per shard, so clean shards cost nothing, not even a
// baseline copy. A dirty shard copies entry pointers, not entries:
// entries are immutable and shared across baselines, and commit
// allocates one only per re-optimized loop.
//
// The per-block path is also on an allocation diet: the topology check
// compares pool metadata field-by-field instead of hashing a
// fingerprint, the graph is rebound to fresh reserves instead of
// rebuilt, orientation walks each cycle's own indices, the price
// symbols are the topology's sorted tokens filtered to this scan's
// loops, ranking sorts (profit, index) keys and copies out only the TopK
// results it keeps, and every per-scan slice lives in a reusable scratch
// arena carried by the Delta, so a steady-state delta scan touches the
// allocator a fixed handful of times regardless of market size.
//
// The dirty set is computed by diffing reserves against the previous
// scan's (authoritative, O(pools)), optionally widened by a caller-
// provided hint such as feed.Update.ChangedPools; prices are re-fetched
// every scan and diffed the same way, so a moved CEX price re-optimizes
// exactly the loops it touches. A Delta is bound at construction to one
// resolved config, so its strategy, loop bounds, and shard count cannot
// change under a captured baseline: the previous state is unusable only
// on the first scan or after a topology change, and then Scan
// transparently falls back to a full scan and captures fresh state.
package scan

import (
	"context"
	"slices"
	"sync"
	"time"

	"arbloop/internal/amm"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
)

// Delta is the delta engine: one scanner's memory between scans — the
// topology it scanned, the shard partition, the reserves and prices it
// scanned at, and the per-shard captured outcomes — bound to the config
// NewDelta resolved. The first Scan is a full scan that populates it.
// Safe for concurrent use: the mutex guards only the in-memory baseline
// snapshot, the scratch-arena checkout, and commit — never the price
// fetch or the optimization fan-out, so a slow scan (hung PriceSource,
// heavy strategy) cannot stall other scans on the same engine.
// Concurrent scans each compute against the baseline they snapshotted —
// any committed baseline is a self-consistent (reserves, prices, shards)
// capture, so last-writer-wins is correct and the next diff simply runs
// against whichever baseline landed.
type Delta struct {
	// cfg is resolved once by NewDelta and never changes, which is what
	// lets a baseline outlive the scan that captured it.
	cfg   Config
	mu    sync.Mutex
	valid bool
	base  baseline
	// scr is the reusable scratch arena. At most one scan holds it at a
	// time; a concurrent scan that finds it checked out allocates a
	// fresh one (rare — the steady state is one scan per block).
	scr *scratch
	// lifetime counters (under mu).
	fullScans, deltaScans, shardScans uint64
}

// NewDelta builds a delta engine bound to cfg, resolving its defaults
// once: Shards and Parallelism take the GOMAXPROCS of this call, and a
// later GOMAXPROCS change neither re-partitions the baseline nor forces
// a full scan. cfg.Workers is ignored — the worker pool is the one input
// block-driven callers vary, so Scan takes it per call.
func NewDelta(cfg Config) *Delta {
	return &Delta{cfg: cfg.Resolve()}
}

// poolMeta is the topology identity of one canonical pool — everything
// the Fingerprint hashes, kept unhashed so the per-block topology check
// is a field compare instead of a SHA-256 pass.
type poolMeta struct {
	id, token0, token1 string
	fee                float64
}

// baseline is one captured scan, immutable once committed: every field
// is replaced wholesale by commit, never mutated in place, so readers
// holding a snapshot need no lock. Shard baselines are shared across
// consecutive commits when clean (copy-on-write).
type baseline struct {
	top  *topology
	plan *shardPlan
	// meta is the canonical pool set's topology identity at capture.
	meta []poolMeta
	// reserves[i] holds {Reserve0, Reserve1} of canonical pool i at the
	// captured scan — what the dirty-pool diff runs against.
	reserves [][2]float64
	// prices is the price map the captured results were monetized with.
	prices strategy.PriceMap
	// shards holds each shard's captured per-cycle outcomes.
	shards []*shardBase
}

// snapshot returns the current baseline (under mu) without judging
// usability — the caller checks the topology against its own pools.
func (d *Delta) snapshot() (baseline, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.base, d.valid
}

// deltaEntry is one profitable cycle's captured outcome. Immutable once
// committed: baselines share entries by pointer.
type deltaEntry struct {
	loop   *strategy.Loop
	result strategy.Result
	err    error
}

// DeltaStats counts how a Delta resolved its scans: on the fast path or
// through the full-scan fallback, and how much shard work the fast path
// did.
type DeltaStats struct {
	FullScans, DeltaScans uint64
	// ShardsScanned is the cumulative number of shards rescanned by
	// committed scans. Captures contribute every shard, delta scans only
	// the dirty ones, so a low ShardsScanned relative to Shards×(FullScans
	// +DeltaScans) means the sharded fast path is doing its job.
	ShardsScanned uint64
	// Shards is the shard count of the current baseline (0 before the
	// first capture).
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
	s := DeltaStats{FullScans: d.fullScans, DeltaScans: d.deltaScans, ShardsScanned: d.shardScans}
	if d.valid && d.base.plan != nil {
		s.Shards = d.base.plan.n
	}
	return s
}

// checkoutScratch hands the reusable arena to one scan (a fresh one when
// another scan holds it); putScratch returns it.
func (d *Delta) checkoutScratch() *scratch {
	d.mu.Lock()
	scr := d.scr
	d.scr = nil
	d.mu.Unlock()
	if scr == nil {
		scr = &scratch{}
	}
	return scr
}

func (d *Delta) putScratch(scr *scratch) {
	d.mu.Lock()
	d.scr = scr
	d.mu.Unlock()
}

// usable reports whether the captured baseline can serve a delta scan of
// the given canonical pools: an identical pool topology, metadata
// compared field-by-field (the allocation-free equivalent of a
// fingerprint match). Strategy, bounds, and shard count need no check —
// the engine's config cannot change under its baseline.
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
// outlives the scan that holds it — state that must survive (orient,
// entries) is written into fresh copy-on-write shard baselines instead.
type scratch struct {
	dirtyPool  []bool // per canonical pool
	dirtyCycle []bool // per cycle
	// shardCycles[s] lists the reserve-dirty cycles of shard s this
	// scan; dirtyShards lists the shards with any.
	shardCycles [][]int
	dirtyShards []int
	shardErrs   []error // per dirtyShards position, set by phase-A workers
	// newShard[s] is shard s's copy-on-write baseline this scan (nil =
	// clean, shares the previous baseline).
	newShard []*shardBase
	// newLoop[ci] is the freshly built loop of a dirty profitable cycle
	// (stale entries are never read — only cycles dirty this scan are).
	newLoop   []*strategy.Loop
	loopIdx   []int32 // per cycle: loop index this scan, or -1
	loops     []*strategy.Loop
	loopCycle []int  // per loop: owning cycle
	reopt     []bool // per loop: must re-run Optimize
	jobs      []int
	all       []Result
	symbols   []string
	// keys is assembleReport's ranking buffer.
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

// reset prepares the arena for one scan over nPools pools, nCycles
// cycles, and nShards shards.
func (s *scratch) reset(nPools, nCycles, nShards int) {
	s.dirtyPool = growSlice(s.dirtyPool, nPools)
	clear(s.dirtyPool)
	s.dirtyCycle = growSlice(s.dirtyCycle, nCycles)
	clear(s.dirtyCycle)
	s.shardCycles = growSlice(s.shardCycles, nShards)
	for i := range s.shardCycles {
		s.shardCycles[i] = s.shardCycles[i][:0]
	}
	s.dirtyShards = s.dirtyShards[:0]
	s.shardErrs = s.shardErrs[:0]
	s.newShard = growSlice(s.newShard, nShards)
	clear(s.newShard)
	s.newLoop = growSlice(s.newLoop, nCycles)
	s.loopIdx = growSlice(s.loopIdx, nCycles)
	s.loops = s.loops[:0]
	s.loopCycle = s.loopCycle[:0]
	s.reopt = s.reopt[:0]
	s.jobs = s.jobs[:0]
	s.symbols = s.symbols[:0]
}

// Scan scans the pool set, re-optimizing only the loops affected by
// reserve or price changes since the engine's previous scan and merging
// the rest from the captured results. The report is identical — results,
// ordering, counters — to a full Run over the same pools and prices
// under the engine's config, except that TopologyCacheHit reflects the
// delta path and LoopsReoptimized/LoopsReused/ShardsScanned expose the
// work split. workers, when non-nil, runs the parallel phases on a
// persistent goroutine pool.
//
// hint optionally names pools the caller already knows changed (e.g.
// feed.Update.ChangedPools); it widens the self-computed dirty set and is
// never trusted to narrow it, so a stale or incomplete hint — coalesced
// feed updates, a skipped version — cannot produce a wrong report.
//
// Scan falls back to a full scan (capturing fresh state) whenever the
// engine has no usable baseline: the first scan, or a changed topology.
//
// Scan is the steady-state per-block path, pinned to a ~7-alloc
// budget (TestDeltaScanAllocBudget, TestTelemetryScanAllocs). Every
// deliberate allocation below carries an //arblint:ignore with its
// reason; anything new must either ride the scratch arena or justify
// itself the same way.
//
//arblint:hotpath
func (d *Delta) Scan(ctx context.Context, pools []*amm.Pool, hint []string, prices source.PriceSource, workers *Workers) (Report, error) {
	pools = Canonicalize(pools)
	if len(pools) == 0 {
		return Report{}, errNoPools
	}

	base, ok := d.snapshot()
	if !ok || !base.usable(pools) {
		d.bump(true)
		return d.capture(ctx, pools, prices, workers)
	}
	d.bump(false)
	m := d.cfg.Metrics
	var start, t time.Time
	timed := false
	if m != nil {
		m.DeltaScans.Inc()
		// One clock read per scan keeps the dirtiness EMA gap exact; the
		// per-stage boundary reads below are sampled (see StageSample).
		timed = m.timedScan()
		start = time.Now()
		t = start
	}

	top, plan := base.top, base.plan
	g, err := top.skel.Rebind(pools)
	if err != nil {
		return Report{}, err
	}

	scr := d.checkoutScratch()
	defer d.putScratch(scr)
	scr.reset(len(pools), len(top.cycles), plan.n)

	// Dirty pools: the reserve diff against the captured baseline is
	// authoritative; the hint can only widen it.
	dirtyPools := 0
	for i, p := range pools {
		if p.Reserve0 != base.reserves[i][0] || p.Reserve1 != base.reserves[i][1] {
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

	// Dirty cycles via the inverted index, grouped by owning shard: any
	// cycle routing through a dirty pool must re-orient (its price
	// product moved), and only shards with dirty cycles wake up.
	for pi, dirty := range scr.dirtyPool {
		if !dirty {
			continue
		}
		for _, ci := range top.poolCycles[pi] {
			if scr.dirtyCycle[ci] {
				continue
			}
			scr.dirtyCycle[ci] = true
			s := int(plan.shardOf[ci])
			if len(scr.shardCycles[s]) == 0 {
				scr.dirtyShards = append(scr.dirtyShards, s)
			}
			scr.shardCycles[s] = append(scr.shardCycles[s], ci)
		}
	}

	// Phase A — shard re-orientation, dirty shards in parallel: each
	// dirty shard clones its baseline (copy-on-write), re-orients its
	// dirty cycles against the fresh reserves, and rebuilds the loops of
	// the profitable ones.
	if n := len(scr.dirtyShards); n > 0 {
		scr.shardErrs = growSlice(scr.shardErrs, n)
		clear(scr.shardErrs)
		//arblint:ignore hotpath dirty-shard fan-out only: clean steady-state scans never reach this branch, and the capture is one closure per dirty scan
		forEachIndex(ctx, workers, d.cfg.Parallelism, n, func(k int) bool {
			s := scr.dirtyShards[k]
			sb := cloneShardBase(base.shards[s])
			scr.newShard[s] = sb
			for _, ci := range scr.shardCycles[s] {
				lo := plan.localOf[ci]
				o, err := orientCycle(g, top.cycles[ci])
				if err != nil {
					scr.shardErrs[k] = err
					return false
				}
				sb.orient[lo] = o
				if o == orientNone {
					sb.entries[lo] = nil // drop the stale capture
					continue
				}
				loop, err := loopFromCycle(g, top.cycles[ci], o)
				if err != nil {
					scr.shardErrs[k] = err
					return false
				}
				scr.newLoop[ci] = loop
			}
			return true
		})
		for _, err := range scr.shardErrs {
			if err != nil {
				return Report{}, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	if m != nil {
		for _, s := range scr.dirtyShards {
			m.shardWake(s)
		}
	}

	// Stitch: materialize the detected loop list in global cycle order —
	// exactly the order a full scan detects in — reading each cycle's
	// orientation from its shard (the fresh clone when dirty, the shared
	// baseline when clean).
	for ci := range top.cycles {
		s := plan.shardOf[ci]
		lo := plan.localOf[ci]
		sb := scr.newShard[s]
		if sb == nil {
			sb = base.shards[s]
		}
		o := sb.orient[lo]
		if o == orientNone {
			scr.loopIdx[ci] = -1
			continue
		}
		dirty := scr.dirtyCycle[ci]
		var loop *strategy.Loop
		if dirty {
			loop = scr.newLoop[ci]
		} else {
			loop = sb.entries[lo].loop
		}
		scr.loopIdx[ci] = int32(len(scr.loops))
		scr.loops = append(scr.loops, loop)
		scr.loopCycle = append(scr.loopCycle, ci)
		scr.reopt = append(scr.reopt, dirty)
	}

	if timed {
		now := time.Now()
		m.StageOrient.Observe(now.Sub(t))
		t = now
	}

	// Prices are re-fetched every scan (one batched call, the same set a
	// full scan would fetch). A moved price re-optimizes every loop
	// touching the token — cached Monetized values are stale for it —
	// and wakes the loop's shard for the copy-on-write commit.
	scr.symbols = top.priceSymbols(scr.symbols, scr.loopIdx)
	pm, degraded, err := fetchPriceSymbols(ctx, prices, scr.symbols, d.cfg.StageTimeout)
	if err != nil {
		return Report{}, err
	}
	priceMoved := false
	for _, tok := range scr.symbols {
		old, ok := base.prices[tok]
		if ok && old == pm[tok] {
			continue
		}
		priceMoved = true
		for _, ci := range top.tokenCycles[tok] {
			li := scr.loopIdx[ci]
			if li < 0 || scr.reopt[li] {
				continue
			}
			scr.reopt[li] = true
			if s := plan.shardOf[ci]; scr.newShard[s] == nil {
				scr.newShard[s] = cloneShardBase(base.shards[s])
				if m != nil {
					m.shardWake(int(s))
				}
			}
		}
	}
	if timed {
		now := time.Now()
		m.StagePrices.Observe(now.Sub(t))
		t = now
	}

	// Phase B — optimization fan-out over the affected loops (chunked,
	// parallel); every clean loop merges from its shard's capture.
	scr.all = growSlice(scr.all, len(scr.loops))
	for li, loop := range scr.loops {
		if scr.reopt[li] {
			scr.jobs = append(scr.jobs, li)
			scr.all[li] = Result{Index: li, Loop: loop}
			continue
		}
		ci := scr.loopCycle[li]
		sb := scr.newShard[plan.shardOf[ci]]
		if sb == nil {
			sb = base.shards[plan.shardOf[ci]]
		}
		e := sb.entries[plan.localOf[ci]]
		scr.all[li] = Result{Index: li, Loop: e.loop, Result: e.result, Err: e.err}
	}
	optimizeInto(ctx, scr.loops, pm, scr.jobs, scr.all, d.cfg, workers)
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	if m != nil {
		m.LoopsReoptimized.Add(uint64(len(scr.jobs)))
		m.LoopsReused.Add(uint64(len(scr.loops) - len(scr.jobs)))
		if timed {
			now := time.Now()
			m.StageOptimize.Observe(now.Sub(t))
			t = now
		}
	}

	// Point the copy-on-write shard entries at the fresh outcomes.
	for _, li := range scr.jobs {
		ci := scr.loopCycle[li]
		r := &scr.all[li]
		//arblint:ignore hotpath the entry outlives the scan: the committed baseline holds it until its loop re-optimizes again
		scr.newShard[plan.shardOf[ci]].entries[plan.localOf[ci]] = &deltaEntry{loop: r.Loop, result: r.Result, err: r.Err}
	}
	shardsScanned := 0
	for _, sb := range scr.newShard {
		if sb != nil {
			shardsScanned++
		}
	}

	// assembleReport only reads the detection within the call, so the
	// scratch arena carries it across blocks instead of the heap.
	scr.det = detection{graph: g, top: top, loops: scr.loops, prices: pm, cacheHit: true, degraded: degraded}
	rep, err := assembleReport(&scr.det, d.cfg, scr.all, &scr.keys, len(scr.jobs), len(scr.loops)-len(scr.jobs))
	if err != nil {
		return Report{}, err
	}
	rep.ShardsScanned = shardsScanned

	// Commit the new baseline only after a fully successful scan, so a
	// failed pass leaves the previous (still self-consistent) state for
	// the next diff. A no-op scan (nothing dirty, no price moved)
	// commits nothing — the baseline is already exact.
	if dirtyPools > 0 || priceMoved || shardsScanned > 0 {
		shards := base.shards
		if shardsScanned > 0 {
			shards = make([]*shardBase, plan.n)
			for s := range shards {
				if scr.newShard[s] != nil {
					shards[s] = scr.newShard[s]
				} else {
					shards[s] = base.shards[s]
				}
			}
		}
		reserves := make([][2]float64, len(pools))
		for i, p := range pools {
			reserves[i] = [2]float64{p.Reserve0, p.Reserve1}
		}
		next := base
		next.reserves = reserves
		next.prices = pm
		next.shards = shards
		d.commitBase(next, shardsScanned)
	}
	if timed {
		now := time.Now()
		m.StageCommit.Observe(now.Sub(t))
		m.ScanTotal.Observe(now.Sub(start))
	}
	return rep, nil
}

// capture is the full-scan fallback: one complete detection +
// optimization pass that also captures per-shard state for the next
// delta scan. pools must be canonical.
func (d *Delta) capture(ctx context.Context, pools []*amm.Pool, prices source.PriceSource, workers *Workers) (Report, error) {
	m := d.cfg.Metrics
	var start, t time.Time
	if m != nil {
		start = time.Now()
		m.FullScans.Inc()
	}
	det, err := detect(ctx, pools, prices, d.cfg)
	if err != nil {
		return Report{}, err
	}
	if m != nil {
		t = time.Now()
	}
	all := collectAll(ctx, det, d.cfg, workers)
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	if m != nil {
		now := time.Now()
		m.StageOptimize.Observe(now.Sub(t))
		m.LoopsReoptimized.Add(uint64(len(det.loops)))
		t = now
	}
	var keys []rankKey
	rep, err := assembleReport(det, d.cfg, all, &keys, len(det.loops), 0)
	if err != nil {
		return Report{}, err
	}

	plan := buildShardPlan(det.top, d.cfg.Shards)
	loopCycle := make([]int, len(det.loops))
	for ci, li := range det.loopOf {
		if li >= 0 {
			loopCycle[li] = ci
		}
	}
	meta := make([]poolMeta, len(pools))
	for i, p := range pools {
		meta[i] = poolMeta{id: p.ID, token0: p.Token0, token1: p.Token1, fee: p.Fee}
	}
	reserves := make([][2]float64, len(pools))
	for i, p := range pools {
		reserves[i] = [2]float64{p.Reserve0, p.Reserve1}
	}
	d.commitBase(baseline{
		top:      det.top,
		plan:     plan,
		meta:     meta,
		reserves: reserves,
		prices:   det.prices,
		shards:   splitCapture(plan, det.orient, loopCycle, all),
	}, plan.n)
	rep.ShardsScanned = plan.n
	if m != nil {
		m.capture(pools, plan.n)
		now := time.Now()
		m.StageCommit.Observe(now.Sub(t))
		m.ScanTotal.Observe(now.Sub(start))
	}
	return rep, nil
}

// commitBase replaces the captured baseline with a freshly built one
// (dirty shard baselines are fresh copies, clean ones shared — either
// way nothing a concurrent snapshot holds is mutated). Takes the lock
// itself.
func (d *Delta) commitBase(b baseline, shardsScanned int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.valid = true
	d.base = b
	d.shardScans += uint64(shardsScanned)
}
