package scan

import (
	"strconv"
	"sync/atomic"
	"time"

	"arbloop/internal/amm"
	"arbloop/internal/telemetry"
)

// DirtinessTau is the time constant of the per-pool dirtiness-rate EMAs:
// a pool that traded within the last ~30 s reads close to 1, one quiet
// for several constants decays toward 0. Block cadence is seconds, so
// 30 s spans a dozen-odd blocks — long enough to smooth single-block
// noise, short enough that a pool going quiet shows within a minute.
const DirtinessTau = 30 * time.Second

// StageSample is the deterministic sampling interval of the per-stage
// latency histograms on the delta fast path: one scan in every
// StageSample carries the stage-boundary clock reads (the dominant
// instrumentation cost — ~5 × vDSO time.Now per timed scan), the rest
// pay only counters. At block cadence that is still a stage sample
// every few seconds, and full scans (captures) are always timed.
// Counters and the dirtiness EMAs stay exact on every scan.
const StageSample = 8

// Metrics is the scan engine's telemetry: per-stage latency histograms,
// scan/loop counters, per-pool dirtiness-rate EMAs, and per-shard
// wake-up counts. Wire one into Config.Metrics (the public Scanner does
// this by default) and expose it through a telemetry.Registry with
// Register.
//
// Every write the engine performs against a Metrics on the steady-state
// delta path is allocation-free: the histograms and counters are
// fixed-size atomics, and the per-pool/per-shard vectors are rebuilt
// only when a capture (full scan) changes the pool set or shard plan —
// the delta path just indexes into them. The ~7-alloc AllocsPerRun
// budget on ScanDelta holds with Metrics enabled.
type Metrics struct {
	// Stage histograms split one scan into the engine's four phases:
	// orientation (dirty diff + shard re-orientation + stitch, or
	// detection on a full scan), the batched CEX price fetch + diff, the
	// optimization fan-out, and the copy-on-write commit (including
	// report assembly). On the delta fast path these (and ScanTotal) are
	// sampled every StageSample-th scan; full scans are always timed.
	StageOrient, StagePrices, StageOptimize, StageCommit telemetry.Histogram
	// ScanTotal is the whole-scan latency, both paths.
	ScanTotal telemetry.Histogram
	// FullScans and DeltaScans count how scans resolved (runCapture vs
	// the delta fast path) — the Metrics view of DeltaStats.
	FullScans, DeltaScans telemetry.Counter
	// LoopsReoptimized and LoopsReused count per-loop work across all
	// scans: how many Optimize calls actually ran vs merged from capture.
	LoopsReoptimized, LoopsReused telemetry.Counter
	// DirtyPools is the cumulative dirty-pool count across delta scans.
	DirtyPools telemetry.Counter
	// StrategyPanics counts panics recovered from Strategy.Optimize
	// calls (each one also fails its loop — see ErrStrategyPanic). A
	// non-zero value is a strategy bug signal, not normal operation.
	StrategyPanics telemetry.Counter
	// DegradedScans counts scans whose prices came from a fallback
	// (Report.Degraded true).
	DegradedScans telemetry.Counter

	// lastScanNano is the wall clock of the previous dirtiness sweep —
	// the shared gap every pool EMA's alpha derives from.
	lastScanNano atomic.Int64
	// scanSeq sequences delta scans for stage-timing sampling (see
	// StageSample and timedScan).
	scanSeq atomic.Uint64
	pools   atomic.Pointer[poolDirtiness]
	shards  atomic.Pointer[shardWakeups]
	// primed holds restart priors for the per-pool dirtiness EMAs (see
	// PrimeDirtiness), consumed by the next capture.
	primed atomic.Pointer[map[string]float64]
}

// poolDirtiness is the per-pool EMA vector for one captured pool set,
// indexed like the canonical pool slice. Swapped wholesale at capture;
// EMAs are pointers so a pool surviving a topology change keeps its
// history.
type poolDirtiness struct {
	ids []string
	ema []*telemetry.EMA
}

// shardWakeups is one counter per shard of the captured plan. The
// counters are cache-line padded (telemetry.Counter), so parallel
// phase-A workers bumping adjacent shards never false-share.
type shardWakeups struct {
	wake []telemetry.Counter
}

// NewMetrics returns an empty Metrics ready to wire into Config.Metrics.
func NewMetrics() *Metrics { return &Metrics{} }

// timedScan reports whether this delta scan carries the per-stage clock
// reads: the first scan after construction and every StageSample-th
// after. Deterministic (a counter, not a PRNG) so tests and replays see
// a fixed sampling pattern.
func (m *Metrics) timedScan() bool {
	return m.scanSeq.Add(1)%StageSample == 1
}

// capture (re)sizes the per-pool and per-shard vectors for a freshly
// captured baseline. Runs on the full-scan path only — it allocates.
// Pools that persist across the capture keep their EMA state.
func (m *Metrics) capture(pools []*amm.Pool, nShards int) {
	priors := m.primed.Swap(nil)
	old := m.pools.Load()
	rebuild := old == nil || len(old.ids) != len(pools)
	if !rebuild {
		for i, p := range pools {
			if old.ids[i] != p.ID {
				rebuild = true
				break
			}
		}
	}
	if rebuild {
		var oldIdx map[string]int
		if old != nil {
			oldIdx = make(map[string]int, len(old.ids))
			for i, id := range old.ids {
				oldIdx[id] = i
			}
		}
		now := time.Now()
		pd := &poolDirtiness{ids: make([]string, len(pools)), ema: make([]*telemetry.EMA, len(pools))}
		for i, p := range pools {
			pd.ids[i] = p.ID
			if j, ok := oldIdx[p.ID]; ok {
				pd.ema[i] = old.ema[j]
			} else {
				pd.ema[i] = telemetry.NewEMA(DirtinessTau)
				if priors != nil {
					if v, ok := (*priors)[p.ID]; ok && v >= 0 && v <= 1 {
						pd.ema[i].Prime(v, now)
					}
				}
			}
		}
		m.pools.Store(pd)
	}
	if sw := m.shards.Load(); sw == nil || len(sw.wake) != nShards {
		m.shards.Store(&shardWakeups{wake: make([]telemetry.Counter, nShards)})
	}
	// Start (or restart) the EMA clock so the first delta scan after this
	// capture weights its sweep by a real gap.
	m.lastScanNano.Store(time.Now().UnixNano())
}

// observeDirtiness folds one delta scan's per-pool dirty flags into the
// dirtiness-rate EMAs: 1 for a pool whose reserves moved, implicit 0
// otherwise. Event-less sweeps telescope into pure exponential decay
// (see telemetry.EMA.DecayAdd), so only *dirty* pools are touched — one
// shared alpha from the inter-scan gap, one DecayAdd per moved pool, and
// clean pools cost nothing. nDirty short-circuits the flag sweep: a
// fully clean scan (the steady-state fast path) pays one atomic swap and
// returns, and a scan with k dirty pools stops after the k-th hit — the
// per-scan telemetry cost scales with what moved, not with market size.
func (m *Metrics) observeDirtiness(dirty []bool, nDirty int, now time.Time) {
	pd := m.pools.Load()
	if pd == nil || len(pd.ema) != len(dirty) {
		return
	}
	nano := now.UnixNano()
	last := m.lastScanNano.Swap(nano)
	if last == 0 || nano <= last || nDirty == 0 {
		return
	}
	alpha := telemetry.Alpha(time.Duration(nano-last), DirtinessTau)
	for i, d := range dirty {
		if d {
			pd.ema[i].DecayAdd(alpha, now)
			if nDirty--; nDirty == 0 {
				return
			}
		}
	}
}

// shardWake counts one shard waking up (re-orienting) this scan.
func (m *Metrics) shardWake(s int) {
	if sw := m.shards.Load(); sw != nil && s >= 0 && s < len(sw.wake) {
		sw.wake[s].Inc()
	}
}

// PrimeDirtiness stages restart priors for the per-pool dirtiness EMAs:
// estimates recovered from the durable opportunity log's tail, keyed by
// pool ID. The next capture consumes the map (take-once) and seeds the
// EMA of every pool it creates whose prior is a sane probability in
// [0, 1]; pools without a prior, and all later topology changes, start
// cold as before. Call it before the first scan.
func (m *Metrics) PrimeDirtiness(priors map[string]float64) {
	if len(priors) == 0 {
		return
	}
	m.primed.Store(&priors)
}

// PoolDirtiness returns the current per-pool dirtiness-rate estimates
// keyed by pool ID (nil before the first capture).
func (m *Metrics) PoolDirtiness() map[string]float64 {
	pd := m.pools.Load()
	if pd == nil {
		return nil
	}
	now := time.Now()
	out := make(map[string]float64, len(pd.ids))
	for i, id := range pd.ids {
		out[id] = pd.ema[i].DecayedValue(now)
	}
	return out
}

// ShardWakeups returns the per-shard wake-up counts of the current plan
// (nil before the first capture).
func (m *Metrics) ShardWakeups() []uint64 {
	sw := m.shards.Load()
	if sw == nil {
		return nil
	}
	out := make([]uint64, len(sw.wake))
	for i := range sw.wake {
		out[i] = sw.wake[i].Load()
	}
	return out
}

// Register exposes every metric on reg under the arbloop_scan_* /
// arbloop_pool_* / arbloop_shard_* families.
func (m *Metrics) Register(reg *telemetry.Registry) {
	const stageHelp = "scan latency split by engine stage"
	reg.Histogram("arbloop_scan_stage_duration_seconds", `stage="orient"`, stageHelp, &m.StageOrient)
	reg.Histogram("arbloop_scan_stage_duration_seconds", `stage="prices"`, stageHelp, &m.StagePrices)
	reg.Histogram("arbloop_scan_stage_duration_seconds", `stage="optimize"`, stageHelp, &m.StageOptimize)
	reg.Histogram("arbloop_scan_stage_duration_seconds", `stage="commit"`, stageHelp, &m.StageCommit)
	reg.Histogram("arbloop_scan_duration_seconds", "", "whole-scan wall latency", &m.ScanTotal)
	reg.Counter("arbloop_scans_total", `kind="full"`, "scans by resolution (full capture vs delta fast path)", &m.FullScans)
	reg.Counter("arbloop_scans_total", `kind="delta"`, "scans by resolution (full capture vs delta fast path)", &m.DeltaScans)
	reg.Counter("arbloop_scan_loops_total", `outcome="reoptimized"`, "per-loop outcomes: Optimize ran vs merged from capture", &m.LoopsReoptimized)
	reg.Counter("arbloop_scan_loops_total", `outcome="reused"`, "per-loop outcomes: Optimize ran vs merged from capture", &m.LoopsReused)
	reg.Counter("arbloop_scan_dirty_pools_total", "", "cumulative pools whose reserves moved, across delta scans", &m.DirtyPools)
	reg.Counter("arbloop_scan_strategy_panics_total", "", "panics recovered from strategy Optimize calls (each fails its loop)", &m.StrategyPanics)
	reg.Counter("arbloop_scan_degraded_total", "", "scans whose prices came from a fallback (report marked degraded)", &m.DegradedScans)
	reg.GaugeVec("arbloop_pool_dirtiness_rate", "pool",
		"EMA (tau 30s) of each pool's probability of trading between scans",
		func(emit func(string, float64)) {
			pd := m.pools.Load()
			if pd == nil {
				return
			}
			now := time.Now()
			for i, id := range pd.ids {
				emit(id, pd.ema[i].DecayedValue(now))
			}
		})
	reg.CounterVec("arbloop_shard_wakeups_total", "shard",
		"times each delta-engine shard re-oriented (woke) across scans",
		func(emit func(string, float64)) {
			sw := m.shards.Load()
			if sw == nil {
				return
			}
			for i := range sw.wake {
				emit(strconv.Itoa(i), float64(sw.wake[i].Load()))
			}
		})
}
