package arbloop_test

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"

	"arbloop"
)

// TestPaperExampleT1 runs the Section V example through the public API —
// the library's headline acceptance test.
func TestPaperExampleT1(t *testing.T) {
	p1, err := arbloop.NewPool("p1", "X", "Y", 100, 200, arbloop.DefaultFee)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := arbloop.NewPool("p2", "Y", "Z", 300, 200, arbloop.DefaultFee)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := arbloop.NewPool("p3", "Z", "X", 200, 400, arbloop.DefaultFee)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := arbloop.NewLoop([]arbloop.Hop{
		{Pool: p1, TokenIn: "X"},
		{Pool: p2, TokenIn: "Y"},
		{Pool: p3, TokenIn: "Z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	prices := arbloop.PriceMap{"X": 2, "Y": 10.2, "Z": 20}

	mm, err := arbloop.MaxMax(loop, prices)
	if err != nil {
		t.Fatal(err)
	}
	if mm.StartToken != "Z" || math.Abs(mm.Monetized-205.6) > 0.5 {
		t.Errorf("MaxMax = %s %.2f$, paper Z 205.6$", mm.StartToken, mm.Monetized)
	}
	cv, err := arbloop.Convex(loop, prices)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cv.Monetized-206.1) > 0.5 {
		t.Errorf("Convex = %.2f$, paper 206.1$", cv.Monetized)
	}
	if cv.Strategy != arbloop.StrategyConvex || mm.Strategy != arbloop.StrategyMaxMax {
		t.Errorf("strategies = %q, %q", cv.Strategy, mm.Strategy)
	}
}

// TestEndToEndPipeline exercises the full public surface: generate a
// market, detect loops, optimize, and monetize through the HTTP oracle.
func TestEndToEndPipeline(t *testing.T) {
	snap, err := arbloop.GenerateMarket(arbloop.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	filtered := snap.FilterPools(30_000, 100)
	g, err := filtered.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := arbloop.EnumerateCycles(g, 3, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	loops, err := arbloop.ArbitrageLoops(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 123 {
		t.Fatalf("arbitrage loops = %d, paper 123", len(loops))
	}

	// Serve prices over HTTP and fetch through the caching client.
	oracle := arbloop.NewStaticOracle(filtered.PricesUSD)
	srv := httptest.NewServer(arbloop.NewPriceServer(oracle))
	defer srv.Close()
	client := arbloop.NewPriceClient(srv.URL, arbloop.PriceClientOptions{})

	loop, err := arbloop.LoopFromDirected(g, loops[0])
	if err != nil {
		t.Fatal(err)
	}
	fetched, err := client.Prices(context.Background(), loop.Tokens())
	if err != nil {
		t.Fatal(err)
	}
	mm, err := arbloop.MaxMax(loop, arbloop.PriceMap(fetched))
	if err != nil {
		t.Fatal(err)
	}
	if mm.Monetized <= 0 {
		t.Errorf("MaxMax on detected loop = %.4f$, want > 0", mm.Monetized)
	}
}

// TestBellmanFordPublicAPI checks negative-cycle detection through the
// facade.
func TestBellmanFordPublicAPI(t *testing.T) {
	snap, err := arbloop.GenerateMarket(arbloop.DefaultGeneratorConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, err := snap.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	d, err := arbloop.FindNegativeCycle(g)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() < 2 {
		t.Errorf("negative cycle length = %d", d.Len())
	}
}
