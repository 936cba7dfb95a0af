package scan

import (
	"math"
	"testing"
	"time"

	"arbloop/internal/amm"
	"arbloop/internal/telemetry"
)

func TestMetricsPrimeDirtiness(t *testing.T) {
	m := NewMetrics()
	m.PrimeDirtiness(map[string]float64{
		"P0":  0.75,
		"P1":  2.5,  // out of range: ignored
		"P2":  -0.1, // out of range: ignored
		"P99": 0.5,  // unknown pool: ignored
	})
	pools := make([]*amm.Pool, 3)
	for i, id := range []string{"P0", "P1", "P2"} {
		p, err := amm.NewPool(id, "A", "B", 1000, 1000, 0.003)
		if err != nil {
			t.Fatal(err)
		}
		pools[i] = p
	}
	m.capture(pools)
	d := m.PoolDirtiness()
	if d["P0"] < 0.5 || d["P0"] > 0.75 {
		t.Fatalf("P0 prior = %v, want ~0.75 decaying", d["P0"])
	}
	if d["P1"] != 0 || d["P2"] != 0 {
		t.Fatalf("out-of-range priors leaked: %v", d)
	}
	if _, ok := d["P99"]; ok {
		t.Fatalf("unknown pool appeared: %v", d)
	}
	// Take-once: a later capture with a new pool set starts cold.
	p3, err := amm.NewPool("P3", "A", "B", 1000, 1000, 0.003)
	if err != nil {
		t.Fatal(err)
	}
	m.capture(append(pools, p3))
	if v := m.PoolDirtiness()["P3"]; v != 0 {
		t.Fatalf("post-priming capture primed P3 = %v", v)
	}
}

func TestEMAPrimeDecays(t *testing.T) {
	e := telemetry.NewEMA(DirtinessTau)
	now := time.Now()
	e.Prime(0.8, now)
	if v := e.DecayedValue(now); math.Abs(v-0.8) > 1e-9 {
		t.Fatalf("primed value = %v, want 0.8", v)
	}
	// One time constant later the prior has decayed by e^-1.
	later := now.Add(DirtinessTau)
	want := 0.8 * math.Exp(-1)
	if v := e.DecayedValue(later); math.Abs(v-want) > 1e-6 {
		t.Fatalf("decayed prior = %v, want %v", v, want)
	}
	// Non-finite priors are ignored.
	e2 := telemetry.NewEMA(DirtinessTau)
	e2.Prime(math.NaN(), now)
	e2.Prime(math.Inf(1), now)
	if v := e2.DecayedValue(now); v != 0 {
		t.Fatalf("non-finite prime leaked: %v", v)
	}
}
