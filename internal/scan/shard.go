// Sharding: the delta engine's unit of parallelism and of baseline
// ownership. The cycle set is partitioned once per topology into N
// shards; each shard owns the captured per-cycle state (orientation,
// outcome and plan) for its cycles, and a block's delta scan touches
// only the shards whose dirty set is non-empty — re-orienting in
// parallel, committing copy-on-write per shard, and leaving clean
// shards' baselines shared with the previous scan untouched.
//
// The partition is connected-component aware: cycles that share a pool
// are grouped (union-find over the pool→cycle inverted index), whole
// groups are laid out contiguously, and the layout is cut into N
// near-equal chunks. A dirty pool therefore wakes as few shards as the
// component structure allows, while a market dominated by one giant
// component — the realistic case — still splits evenly instead of
// serializing behind a single hot shard.
package scan

import (
	"slices"
	"sync/atomic"

	"arbloop/internal/strategy"
)

// shardPlan is the immutable partition of a topology's cycle set into
// shards. It depends only on the topology and the shard count, so it is
// computed once per captured baseline and shared by every scan against
// it.
type shardPlan struct {
	// n is the shard count (≥ 1). Shards may be empty when there are
	// fewer cycles than shards.
	n int
	// shardOf[ci] is the shard owning global cycle ci.
	shardOf []int32
	// localOf[ci] is ci's index within its shard's cycle list.
	localOf []int32
	// cycles[s] lists the global cycle indices of shard s, ascending.
	cycles [][]int
	// planOff[ci] is where ci's plan starts in its shard's plan slab, one
	// input per hop; planLen[s] is shard s's slab length.
	planOff []int32
	planLen []int
}

// buildShardPlan partitions the cycle set into nshards chunks, keeping
// pool-connected cycle components contiguous so a dirty pool's cycles
// land in as few shards as possible.
func buildShardPlan(top *topology, nshards int) *shardPlan {
	total := len(top.cycles)
	if nshards < 1 {
		nshards = 1
	}
	p := &shardPlan{
		n:       nshards,
		shardOf: make([]int32, total),
		localOf: make([]int32, total),
		cycles:  make([][]int, nshards),
		planOff: make([]int32, total),
		planLen: make([]int, nshards),
	}
	if total == 0 {
		return p
	}

	// Union-find over cycles: cycles sharing a pool are one component.
	parent := make([]int32, total)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for _, cs := range top.poolCycles {
		if len(cs) < 2 {
			continue
		}
		r0 := find(int32(cs[0]))
		for _, ci := range cs[1:] {
			r := find(int32(ci))
			if r != r0 {
				parent[r] = r0
			}
		}
	}

	// Lay cycles out grouped by component, components ordered by their
	// smallest cycle index, cycles ascending within a component — a
	// deterministic order that keeps each component contiguous.
	compOf := make(map[int32][]int)
	var compOrder []int32
	for ci := 0; ci < total; ci++ {
		r := find(int32(ci))
		if _, seen := compOf[r]; !seen {
			compOrder = append(compOrder, r)
		}
		compOf[r] = append(compOf[r], ci)
	}
	order := make([]int, 0, total)
	for _, r := range compOrder {
		order = append(order, compOf[r]...)
	}

	// Cut the layout into nshards near-equal contiguous chunks.
	base, rem := total/nshards, total%nshards
	pos := 0
	for s := 0; s < nshards; s++ {
		size := base
		if s < rem {
			size++
		}
		chunk := order[pos : pos+size]
		pos += size
		// Shard cycle lists are kept ascending so per-shard scans walk
		// cycles in global detection order.
		sorted := make([]int, len(chunk))
		copy(sorted, chunk)
		slices.Sort(sorted)
		p.cycles[s] = sorted
		for lo, ci := range sorted {
			p.shardOf[ci] = int32(s)
			p.localOf[ci] = int32(lo)
			p.planOff[ci] = int32(p.planLen[s])
			p.planLen[s] += top.cycles[ci].Len()
		}
	}
	return p
}

// planOf returns cycle ci's plan in its shard's state sb.
func (p *shardPlan) planOf(sb *shardBase, ci, hops int) []float64 {
	off := int(p.planOff[ci])
	return sb.plans[off : off+hops : off+hops]
}

// shardBase is one shard's captured scan state, immutable once
// committed except for its served-form cache: each cycle's orientation
// and, for a profitable one, its outcome, indexed by the shard's local
// cycle order. Everything is held by value in a few slabs, so a
// committed baseline references no per-scan allocation but its served
// forms, each its own. Clean shards share their whole shardBase across
// consecutive baselines — commit replaces only dirty shards.
type shardBase struct {
	entries []deltaEntry
	// plans holds, for a built-in strategy, each entry's plan as
	// strategy.SolveHops returned it, at shardPlan.planOff.
	plans []float64
	// served[lo] caches entry lo's served form: built for a built-in
	// strategy only when the loop makes a report (strategy.Materialize),
	// at optimization for any other. A scan may fill it on a shard that
	// concurrent scans share — every scan would build the same form — so
	// it is written atomically. It is cleared when the loop re-optimizes.
	served []atomic.Pointer[strategy.Served]
}

// newShardBase returns an empty state for n cycles whose plans take
// plans floats.
func newShardBase(n, plans int) *shardBase {
	return &shardBase{
		entries: make([]deltaEntry, n),
		plans:   make([]float64, plans),
		served:  make([]atomic.Pointer[strategy.Served], n),
	}
}

// copyShardBase makes dst a mutable copy of a shard's captured state —
// the copy-on-write step a dirty shard performs before re-orienting —
// and returns it, allocating when dst is nil or sized for another
// shard. The previous baseline stays intact for concurrent scans that
// snapshotted it.
func copyShardBase(dst, sb *shardBase) *shardBase {
	if dst == nil || len(dst.entries) != len(sb.entries) || len(dst.plans) != len(sb.plans) {
		dst = newShardBase(len(sb.entries), len(sb.plans))
	}
	copy(dst.entries, sb.entries)
	copy(dst.plans, sb.plans)
	for lo := range sb.served {
		dst.served[lo].Store(sb.served[lo].Load())
	}
	return dst
}

// splitCapture distributes a full scan's global per-cycle state into
// per-shard baselines following the plan. orient is indexed by global
// cycle; loopCycle maps loop index → global cycle; all holds the
// optimization outcome per loop. A built-in strategy's results seed the
// plans; any other strategy's are kept as served forms.
func splitCapture(plan *shardPlan, orient []int8, loopCycle []int, all []Result, kernel bool) []*shardBase {
	shards := make([]*shardBase, plan.n)
	for s := 0; s < plan.n; s++ {
		cs := plan.cycles[s]
		plans := 0
		if kernel {
			plans = plan.planLen[s]
		}
		sb := newShardBase(len(cs), plans)
		for lo, ci := range cs {
			sb.entries[lo].orient = orient[ci]
		}
		shards[s] = sb
	}
	for li, ci := range loopCycle {
		r := &all[li]
		sb, lo := shards[plan.shardOf[ci]], plan.localOf[ci]
		e := &sb.entries[lo]
		e.profit, e.err = r.Result.Monetized, r.Err
		switch {
		case r.Err != nil:
		case kernel:
			e.start = int32(strategy.StorePlan(r.Loop, r.Result, plan.planOf(sb, ci, r.Loop.Len())))
		default:
			sb.served[lo].Store(&strategy.Served{Loop: r.Loop, Result: r.Result})
		}
	}
	return shards
}
