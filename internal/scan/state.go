package scan

import (
	"sync/atomic"

	"arbloop/internal/strategy"
)

// deltaState is the delta engine's captured scan state, immutable once
// committed except for its served-form cache: each cycle's orientation
// and, for a profitable one, its outcome, indexed by cycle, and the
// reserves the state was captured at. Everything is held by value in a
// few slabs, so a committed state references no per-scan allocation but
// its served forms, each its own, and an entry that survives many
// commits never keeps a batch of some earlier scan's allocations alive.
type deltaState struct {
	entries []deltaEntry
	// plans holds, for a built-in strategy, each entry's plan as
	// strategy.SolveHops returned it, at topology.planOff.
	plans []float64
	// served[ci] caches cycle ci's served form: built for a built-in
	// strategy only when the loop makes a report (strategy.Materialize),
	// at optimization for any other. A scan may fill it on a committed
	// state that concurrent scans share — every scan would build the
	// same form — so it is written atomically. It is cleared when the
	// loop re-optimizes.
	served []atomic.Pointer[strategy.Served]
	// reserves[i] holds {Reserve0, Reserve1} of canonical pool i at the
	// captured scan — what the dirty-pool diff runs against.
	reserves [][2]float64
}

// newDeltaState returns an empty state for cycles cycles whose plans
// take plans floats, over pools pools.
func newDeltaState(cycles, plans, pools int) *deltaState {
	return &deltaState{
		entries:  make([]deltaEntry, cycles),
		plans:    make([]float64, plans),
		served:   make([]atomic.Pointer[strategy.Served], cycles),
		reserves: make([][2]float64, pools),
	}
}

// copyState makes dst a mutable copy of a committed state — the
// copy-on-write step a scan performs before its first write — and
// returns it, allocating when dst is nil or sized for another topology.
// The committed state stays intact for concurrent scans that
// snapshotted it.
func copyState(dst, st *deltaState) *deltaState {
	if dst == nil || len(dst.entries) != len(st.entries) || len(dst.plans) != len(st.plans) || len(dst.reserves) != len(st.reserves) {
		dst = newDeltaState(len(st.entries), len(st.plans), len(st.reserves))
	}
	copy(dst.entries, st.entries)
	copy(dst.plans, st.plans)
	copy(dst.reserves, st.reserves)
	for ci := range st.served {
		dst.served[ci].Store(st.served[ci].Load())
	}
	return dst
}

// plan returns cycle ci's plan in st, one input per hop.
func (st *deltaState) plan(top *topology, ci int) []float64 {
	lo, hi := top.planOff[ci], top.planOff[ci+1]
	return st.plans[lo:hi:hi]
}
