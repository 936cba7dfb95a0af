package feed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"arbloop/internal/amm"
	"arbloop/internal/chain"
	"arbloop/internal/market"
	"arbloop/internal/scan"
	"arbloop/internal/source"
)

// referenceFeed is the Watcher's original bookkeeping, kept as the
// oracle: quarantine, fingerprint every pool set, and diff reserves by
// pool ID against the last published set.
type referenceFeed struct {
	version                 uint64
	fingerprint             string
	pools                   []*amm.Pool
	sick                    map[string]bool
	quarantined, readmitted uint64
}

// refresh applies one source read and returns what the published update
// must carry; ok is false when every pool was quarantined.
func (r *referenceFeed) refresh(raw []*amm.Pool) (fp string, topo bool, changed []string, ok bool) {
	if r.sick == nil {
		r.sick = map[string]bool{}
	}
	seen := map[string]bool{}
	var kept []*amm.Pool
	for _, p := range raw {
		err := p.Validate()
		dup := err == nil && seen[p.ID]
		if err != nil || dup {
			r.quarantined++
			if !dup {
				r.sick[p.ID] = true
			}
			continue
		}
		if r.sick[p.ID] {
			delete(r.sick, p.ID)
			r.readmitted++
		}
		seen[p.ID] = true
		kept = append(kept, p)
	}
	if len(kept) == 0 {
		return "", false, nil, false
	}
	fp = scan.Fingerprint(kept)
	topo = r.version == 0 || fp != r.fingerprint
	if !topo {
		changed = diffReserves(r.pools, kept)
	}
	r.version++
	r.fingerprint, r.pools = fp, kept
	return fp, topo, changed, true
}

// diffReserves returns the sorted IDs of pools whose reserves differ
// between two views of the same topology, matched by ID. The result is
// non-nil even when empty.
func diffReserves(prev, cur []*amm.Pool) []string {
	byID := make(map[string]*amm.Pool, len(prev))
	for _, p := range prev {
		byID[p.ID] = p
	}
	changed := make([]string, 0)
	for _, p := range cur {
		q, ok := byID[p.ID]
		if !ok || q.Reserve0 != p.Reserve0 || q.Reserve1 != p.Reserve1 {
			changed = append(changed, p.ID)
		}
	}
	sort.Strings(changed)
	return changed
}

// recordingPools serves a pool list the test rewrites between refreshes.
type recordingPools struct{ pools []*amm.Pool }

func (s *recordingPools) Pools(ctx context.Context) ([]*amm.Pool, error) {
	return append([]*amm.Pool(nil), s.pools...), nil
}

// TestRefreshMatchesReference drives a watcher and referenceFeed with the
// same random source reads — reserve moves, pools handed back by pointer
// or rebuilt, permuted order, poisoned and healed pools, duplicate IDs,
// and fee, token and membership changes — and requires every update to
// carry the reference's Fingerprint, TopologyChanged and ChangedPools
// (nil and empty told apart), its pools in canonical order, and the same
// quarantine counters.
func TestRefreshMatchesReference(t *testing.T) {
	const steps = 3000
	rng := rand.New(rand.NewSource(1))
	tokens := []string{"A", "B", "C", "D"}
	universe := make([]*amm.Pool, 12)
	for i := range universe {
		j := rng.Intn(len(tokens))
		universe[i] = amm.MustNewPool(fmt.Sprintf("p%02d", i), tokens[j], tokens[(j+1)%len(tokens)],
			float64(1+rng.Intn(1000)), float64(1+rng.Intn(1000)), amm.DefaultFee)
	}
	live := append([]*amm.Pool(nil), universe...)
	src := &recordingPools{}
	w := NewWatcher(src)
	var ref referenceFeed
	ctx := context.Background()
	cases := map[string]int{}

	for step := 0; step < steps; step++ {
		// Move a few pools' reserves, either side or both; everything
		// else keeps its pointer.
		for k := rng.Intn(3); k > 0; k-- {
			i := rng.Intn(len(live))
			p := *live[i]
			switch rng.Intn(3) {
			case 0:
				p.Reserve0 *= 1 + rng.Float64()/10
			case 1:
				p.Reserve1 *= 1 + rng.Float64()/10
			default:
				p.Reserve0, p.Reserve1 = p.Reserve1, p.Reserve0
			}
			live[i] = &p
		}
		switch r := rng.Intn(40); {
		case r == 0: // fee change
			i := rng.Intn(len(live))
			p := *live[i]
			p.Fee = []float64{amm.DefaultFee, 0.0005, 0.01}[rng.Intn(3)]
			live[i] = &p
			cases["fee"]++
		case r == 1: // token change
			i := rng.Intn(len(live))
			p := *live[i]
			p.Token1 = tokens[rng.Intn(len(tokens))]
			if p.Token1 != p.Token0 {
				live[i] = &p
				cases["tokens"]++
			}
		case r == 2 && len(live) > 2: // a pool leaves
			i := rng.Intn(len(live))
			live = append(live[:i:i], live[i+1:]...)
			cases["removed"]++
		case r == 3: // a pool returns
			p := universe[rng.Intn(len(universe))]
			present := false
			for _, q := range live {
				present = present || q.ID == p.ID
			}
			if !present {
				live = append(live, p)
				cases["added"]++
			}
		}
		read := append([]*amm.Pool(nil), live...)
		if rng.Intn(4) == 0 {
			rng.Shuffle(len(read), func(i, j int) { read[i], read[j] = read[j], read[i] })
			cases["permuted"]++
		}
		if rng.Intn(8) == 0 { // poison one pool for this read only
			i := rng.Intn(len(read))
			p := *read[i]
			p.Reserve1 = math.NaN()
			read[i] = &p
			cases["poisoned"]++
		}
		if rng.Intn(10) == 0 { // a second pool under an existing ID
			p := *read[rng.Intn(len(read))]
			p.Reserve0++
			read = append(read, &p)
			cases["duplicate"]++
		}
		if rng.Intn(200) == 0 { // every pool poisoned
			for i := range read {
				p := *read[i]
				p.Reserve0 = -1
				read[i] = &p
			}
			cases["all poisoned"]++
		}

		src.pools = read
		fp, topo, changed, ok := ref.refresh(read)
		u, err := w.Refresh(ctx)
		if !ok {
			if !errors.Is(err, ErrNoValidPools) {
				t.Fatalf("step %d: err = %v, want ErrNoValidPools", step, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if u.Version != ref.version {
			t.Fatalf("step %d: version %d, reference %d", step, u.Version, ref.version)
		}
		if u.Fingerprint != fp || u.TopologyChanged != topo {
			t.Fatalf("step %d: fingerprint %s topology %v, reference %s %v", step, u.Fingerprint, u.TopologyChanged, fp, topo)
		}
		if !reflect.DeepEqual(u.ChangedPools, changed) {
			t.Fatalf("step %d: ChangedPools %#v, reference %#v", step, u.ChangedPools, changed)
		}
		if want := scan.Canonicalize(ref.pools); !reflect.DeepEqual(u.Pools, want) {
			t.Fatalf("step %d: published pools are not the reference set in canonical order", step)
		}
		if topo {
			cases["topology changed"]++
		} else if len(changed) == 0 {
			cases["nothing moved"]++
		}
	}
	if s := w.Stats(); s.Quarantined != ref.quarantined || s.Readmitted != ref.readmitted {
		t.Fatalf("quarantined %d readmitted %d, reference %d %d", s.Quarantined, s.Readmitted, ref.quarantined, ref.readmitted)
	}
	t.Logf("cases over %d steps: %v; quarantined %d, readmitted %d", steps, cases, ref.quarantined, ref.readmitted)
	for _, c := range []string{"fee", "tokens", "removed", "added", "permuted", "poisoned", "duplicate", "all poisoned", "topology changed", "nothing moved"} {
		if cases[c] == 0 {
			t.Errorf("sequence never hit case %q", c)
		}
	}
	if ref.readmitted == 0 {
		t.Error("sequence never readmitted a pool")
	}
}

// noiseSwaps applies n retail swaps, each 0.01–0.5% of a random pool's
// input reserve, the way serve's block generator trades.
func noiseSwaps(t *testing.T, state *chain.State, rng *rand.Rand, ids []string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id := ids[rng.Intn(len(ids))]
		t0, t1, err := state.PoolTokens(id)
		if err != nil {
			t.Fatal(err)
		}
		r0, r1, err := state.Reserves(id)
		if err != nil {
			t.Fatal(err)
		}
		tokenIn, reserveIn := t0, r0
		if rng.Intn(2) == 1 {
			tokenIn, reserveIn = t1, r1
		}
		amount := new(big.Int).Mul(reserveIn, big.NewInt(int64(1+rng.Intn(50))))
		if _, err := state.Swap(id, tokenIn, amount.Div(amount, big.NewInt(10_000))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRefreshAllocBudget pins the per-block ingest cost: a refresh over
// FromChain on the §VI market (208 pools), after the 4 swaps a steady
// block applies, converts only the moved pools and hashes nothing.
// Converting and fingerprinting every pool, with a diff map per refresh,
// cost 3,135 allocations and 69 kB. Measured on a 2-CPU Xeon host with Go
// 1.24: ~24 allocations and ~2.3 kB (2.4 kB under -race). A fingerprint
// per refresh alone adds ~10 kB, which the byte budget catches.
func TestRefreshAllocBudget(t *testing.T) {
	const (
		runs        = 100
		allocBudget = 100
		byteBudget  = 8 << 10
		scale       = 1_000_000
	)
	snap, err := market.Generate(market.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	state := chain.NewState(0)
	if err := source.MirrorToChain(state, snap.FilterPools(30_000, 100), scale); err != nil {
		t.Fatal(err)
	}
	ids := state.PoolIDs()
	w := NewWatcher(source.FromChain(state, scale), WithHeightProbe(state.Height))
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	refresh := func() Update {
		u, err := w.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	// Two warm-up refreshes fill the source's double buffer.
	refresh()
	noiseSwaps(t, state, rng, ids, 4)
	refresh()

	// Counted like testing.AllocsPerRun (GOMAXPROCS 1), around the
	// refresh alone: the swaps allocate on the chain's side.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var allocs, bytes uint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		noiseSwaps(t, state, rng, ids, 4)
		runtime.ReadMemStats(&before)
		u := refresh()
		runtime.ReadMemStats(&after)
		allocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		if u.TopologyChanged || len(u.ChangedPools) == 0 || len(u.ChangedPools) > 4 {
			t.Fatalf("refresh %d: topology %v, %d changed pools; want only the swapped ones", i, u.TopologyChanged, len(u.ChangedPools))
		}
	}
	perAllocs, perBytes := float64(allocs)/runs, float64(bytes)/runs
	t.Logf("refresh of %d pools: %.1f allocs (budget %d), %.2f kB (budget %d kB)", len(ids), perAllocs, allocBudget, perBytes/1024, byteBudget>>10)
	if perAllocs > allocBudget {
		t.Errorf("refresh allocates %.1f times, budget %d: is every pool converted or fingerprinted per block?", perAllocs, allocBudget)
	}
	if perBytes > byteBudget {
		t.Errorf("refresh allocates %.1f kB, budget %d kB", perBytes/1024, byteBudget>>10)
	}
}
