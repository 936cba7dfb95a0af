package scan

import (
	"context"
	"errors"
	"testing"

	"arbloop/internal/amm"
	"arbloop/internal/cycles"
)

// reservesMoved returns the paper pools with every reserve perturbed —
// same topology, different state.
func reservesMoved(t *testing.T) []*amm.Pool {
	t.Helper()
	pools := paperPools(t)
	out := make([]*amm.Pool, len(pools))
	for i, p := range pools {
		moved, err := amm.NewPool(p.ID, p.Token0, p.Token1, p.Reserve0*1.1, p.Reserve1*0.9, p.Fee)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = moved
	}
	return out
}

func TestFingerprintIgnoresReserves(t *testing.T) {
	a := Fingerprint(paperPools(t))
	b := Fingerprint(reservesMoved(t))
	if a != b {
		t.Error("reserve move changed the topology fingerprint")
	}
}

func TestFingerprintSeesTopology(t *testing.T) {
	base := paperPools(t)
	fp := Fingerprint(base)

	extra, err := amm.NewPool("p4", "X", "W", 50, 50, amm.DefaultFee)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(append(append([]*amm.Pool{}, base...), extra)) == fp {
		t.Error("added pool kept the fingerprint")
	}
	if Fingerprint(base[:2]) == fp {
		t.Error("removed pool kept the fingerprint")
	}

	// Fee change is a topology change: cached orientations assume it.
	refeed, err := amm.NewPool(base[0].ID, base[0].Token0, base[0].Token1, base[0].Reserve0, base[0].Reserve1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint([]*amm.Pool{refeed, base[1], base[2]}) == fp {
		t.Error("fee change kept the fingerprint")
	}

	// Pool order is canonicalized away: a source returning the same set
	// in a different order is the same topology (cycle indices are
	// positional against the *canonical* order, not the input order).
	if Fingerprint([]*amm.Pool{base[1], base[0], base[2]}) != fp {
		t.Error("reordered pools changed the fingerprint")
	}
}

func TestCacheWarmScanMatchesCold(t *testing.T) {
	cache := NewCache(0)
	cfg := Config{Cache: cache}
	ctx := context.Background()

	cold, err := Run(ctx, paperPools(t), paperPrices(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.TopologyCacheHit {
		t.Error("first scan reported a cache hit")
	}

	// Same topology, moved reserves: must hit the cache and still produce
	// a correct (freshly oriented and optimized) report.
	warm, err := Run(ctx, reservesMoved(t), paperPrices(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.TopologyCacheHit {
		t.Error("topology-identical rescan missed the cache")
	}
	if warm.CyclesExamined != cold.CyclesExamined {
		t.Errorf("cycles: warm %d != cold %d", warm.CyclesExamined, cold.CyclesExamined)
	}

	// The warm report must equal a cache-free scan of the same pools.
	fresh, err := Run(ctx, reservesMoved(t), paperPrices(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Results) != len(fresh.Results) {
		t.Fatalf("results: warm %d != fresh %d", len(warm.Results), len(fresh.Results))
	}
	for i := range warm.Results {
		w, f := warm.Results[i], fresh.Results[i]
		if w.Index != f.Index || w.Result.Monetized != f.Result.Monetized || w.Result.StartToken != f.Result.StartToken {
			t.Errorf("result %d: warm %+v != fresh %+v", i, w.Result, f.Result)
		}
	}

	stats := cache.Stats()
	if stats.Hits != 1 || stats.Misses != 1 || stats.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", stats)
	}
}

func TestCacheKeyedByEnumerationBounds(t *testing.T) {
	cache := NewCache(0)
	ctx := context.Background()
	if _, err := Run(ctx, paperPools(t), paperPrices(), Config{Cache: cache, MinLen: 3, MaxLen: 3}); err != nil {
		t.Fatal(err)
	}
	// Different bounds over the same fingerprint must not reuse the entry.
	rep, err := Run(ctx, paperPools(t), paperPrices(), Config{Cache: cache, MinLen: 2, MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TopologyCacheHit {
		t.Error("scan with different length bounds hit the other bounds' entry")
	}
	if got := cache.Stats().Entries; got != 2 {
		t.Errorf("entries = %d, want 2", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.store("a", &topology{})
	c.store("b", &topology{})
	if _, ok := c.lookup("a"); !ok { // refresh a → b is now LRU
		t.Fatal("a missing")
	}
	c.store("c", &topology{})
	if _, ok := c.lookup("b"); ok {
		t.Error("b survived eviction past capacity")
	}
	if _, ok := c.lookup("a"); !ok {
		t.Error("recently used a was evicted")
	}
	if _, ok := c.lookup("c"); !ok {
		t.Error("newest c was evicted")
	}
}

func TestMaxCyclesCapsEnumeration(t *testing.T) {
	// The paper market has one 3-cycle; a cap of 0 means unlimited, and a
	// dense 4-token market exceeds a cap of 1.
	pools := paperPools(t)
	extra, err := amm.NewPool("p4", "X", "Z", 300, 300, amm.DefaultFee)
	if err != nil {
		t.Fatal(err)
	}
	pools = append(pools, extra) // creates additional cycles

	if _, err := Run(context.Background(), pools, paperPrices(), Config{MaxCycles: 1}); !errors.Is(err, cycles.ErrTooMany) {
		t.Errorf("err = %v, want ErrTooMany", err)
	}
	if _, err := Run(context.Background(), pools, paperPrices(), Config{}); err != nil {
		t.Errorf("unlimited scan failed: %v", err)
	}
}

// fingerprintFixture is a fixed pool set for the golden digest: out of
// canonical order, with fields that would alias without length prefixes
// ("ab"+"c" against "a"+"bc") and a fee that is not the default.
func fingerprintFixture(t *testing.T) []*amm.Pool {
	t.Helper()
	pools := append(paperPools(t)[1:], paperPools(t)[0])
	for _, p := range []*amm.Pool{
		amm.MustNewPool("ab", "c", "X", 5, 7, amm.DefaultFee),
		amm.MustNewPool("a", "bc", "X", 5, 7, 0.0005),
	} {
		pools = append(pools, p)
	}
	return pools
}

// TestFingerprintGolden pins the digest of fixed pool sets: a topology
// cache keyed by Fingerprint must keep its keys when the hashing code
// changes.
func TestFingerprintGolden(t *testing.T) {
	const (
		fixture = "0477334a481774fb9a22c9e02972f2b0cc823c3ed433f6bbf0df6e47e5a98c7b"
		sixth   = "c9189a67f6de98ae82bf83590bd516ed751abefd04a9018bacd49e090f3217f6"
	)
	if got := Fingerprint(fingerprintFixture(t)); got != fixture {
		t.Errorf("fixture fingerprint = %s, want %s", got, fixture)
	}
	pools, _ := deltaMarket(t)
	if got := Fingerprint(pools); got != sixth {
		t.Errorf("§VI market fingerprint = %s, want %s", got, sixth)
	}
}

// TestFingerprintAllocBudget pins Fingerprint to one hashing buffer: the
// fields are appended into it and hashed with one sha256.Sum256. Feeding
// a hash.Hash field by field made the length prefix's stack buffer
// escape, one allocation per field (1,252 on the §VI market).
func TestFingerprintAllocBudget(t *testing.T) {
	const budget = 4
	pools, _ := deltaMarket(t)
	if allocs := testing.AllocsPerRun(50, func() { Fingerprint(pools) }); allocs > budget {
		t.Errorf("Fingerprint of %d pools allocates %.0f times, budget %d", len(pools), allocs, budget)
	}
}
