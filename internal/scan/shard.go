// Sharding: the delta engine's unit of parallelism and of baseline
// ownership. The cycle set is partitioned once per topology into N
// shards; each shard owns the captured per-cycle state (orientation +
// optimized result) for its cycles, and a block's delta scan touches
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

import "slices"

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
		}
	}
	return p
}

// shardBase is one shard's captured scan state, immutable once
// committed: the orientation and (for profitable orientations) the
// optimized outcome of every cycle the shard owns, indexed by the
// shard's local cycle order. Entries are held by pointer and are
// themselves immutable, so consecutive baselines share every entry whose
// loop did not re-optimize. Clean shards share their whole shardBase
// across consecutive baselines — commit replaces only dirty shards.
type shardBase struct {
	orient []int8
	// entries[lo] is nil when the cycle has no profitable orientation.
	entries []*deltaEntry
}

// cloneShardBase returns a mutable copy of a shard's captured state —
// the copy-on-write step a dirty shard performs before re-orienting. It
// copies the entry pointers, not the entries: the scan replaces the
// pointers of the cycles it re-optimizes or drops and never writes
// through one, so the previous baseline stays intact for concurrent
// scans that snapshotted it.
func cloneShardBase(sb *shardBase) *shardBase {
	return &shardBase{orient: slices.Clone(sb.orient), entries: slices.Clone(sb.entries)}
}

// splitCapture distributes a full scan's global per-cycle state into
// per-shard baselines following the plan. orient is indexed by global
// cycle; loopCycle maps loop index → global cycle; all holds the
// optimization outcome per loop. The entries live in one slab, one
// allocation per capture.
func splitCapture(plan *shardPlan, orient []int8, loopCycle []int, all []Result) []*shardBase {
	shards := make([]*shardBase, plan.n)
	for s := 0; s < plan.n; s++ {
		cs := plan.cycles[s]
		sb := &shardBase{
			orient:  make([]int8, len(cs)),
			entries: make([]*deltaEntry, len(cs)),
		}
		for lo, ci := range cs {
			sb.orient[lo] = orient[ci]
		}
		shards[s] = sb
	}
	slab := make([]deltaEntry, len(loopCycle))
	for li, ci := range loopCycle {
		r := &all[li]
		slab[li] = deltaEntry{loop: r.Loop, result: r.Result, err: r.Err}
		shards[plan.shardOf[ci]].entries[plan.localOf[ci]] = &slab[li]
	}
	return shards
}
