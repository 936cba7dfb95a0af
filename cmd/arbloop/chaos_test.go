// The chaos soak: the full feed→scan→distrib→HTTP pipeline run under a
// seeded fault schedule — injected source errors, stalls, latency, corrupt
// payloads — plus an occasionally panicking strategy. The assertions are
// the fault-containment contract: the pipeline stays live (versions keep
// advancing), every served report is well-formed with finite profits,
// healthz always answers with a known status, and shutdown leaks no
// goroutines.
package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"arbloop"
	"arbloop/internal/chain"
	"arbloop/internal/distrib"
	"arbloop/internal/faults"
	"arbloop/internal/server"
	"arbloop/internal/source"
)

// flakyStrategy panics on every Nth loop — the buggy custom Strategy the
// per-loop recover must contain.
type flakyStrategy struct {
	inner arbloop.Strategy
	every int64
	calls atomic.Int64
}

func (f *flakyStrategy) Name() string { return "Flaky" }
func (f *flakyStrategy) Optimize(ctx context.Context, l *arbloop.Loop, pm arbloop.PriceMap) (arbloop.Result, error) {
	if f.calls.Add(1)%f.every == 0 {
		panic("chaos: injected strategy panic")
	}
	return f.inner.Optimize(ctx, l, pm)
}

func TestChaosSoak(t *testing.T) {
	soak := 2500 * time.Millisecond
	if testing.Short() {
		soak = 1000 * time.Millisecond
	}

	snap, err := loadOrGenerate("", 0)
	if err != nil {
		t.Fatal(err)
	}
	filtered := snap.FilterPools(30_000, 100)
	state := chain.NewState(0)
	if err := source.MirrorToChain(state, filtered, serveScale); err != nil {
		t.Fatal(err)
	}

	// The fault schedule: seeded (re-runnable bit for bit), with every
	// fault class enabled. Stalls are bounded by the refresh/stage
	// timeouts below — that pairing is exactly what production runs.
	spec, err := faults.ParseSpec("seed=42,err=0.15,stall=0.05,corrupt=0.25,latency=5ms@0.3")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(spec)
	src := inj.WrapPools(arbloop.FromChain(state, serveScale))
	breaker := arbloop.NewPriceBreaker(
		inj.WrapPrices(arbloop.NewStaticOracle(filtered.PricesUSD)),
		arbloop.WithBreakerThreshold(2),
		arbloop.WithBreakerCooldown(150*time.Millisecond))

	sc, err := arbloop.NewScanner(src, breaker,
		arbloop.WithStrategy(&flakyStrategy{inner: arbloop.MaxMaxStrategy{}, every: 9}),
		arbloop.WithTopK(5),
		arbloop.WithStageTimeout(150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, serveConfig{
			addr:           "127.0.0.1:0",
			state:          state,
			scanner:        sc,
			source:         src,
			breaker:        breaker,
			injector:       inj,
			refreshTimeout: 150 * time.Millisecond,
			staleAfter:     10 * time.Second, // stall bursts must degrade, not flap to stale
			heartbeat:      50 * time.Millisecond,
			blockInterval:  25 * time.Millisecond,
			noise:          2,
			ready:          ready,
		})
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("serve exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never came up")
	}

	validStatus := map[string]bool{"starting": true, "ok": true, "degraded": true, "stale": true}
	var firstVersion, lastVersion uint64
	reports := 0
	deadline := time.Now().Add(soak)
	for time.Now().Before(deadline) {
		// Healthz must always answer with a known status, whatever the
		// fault schedule is doing to the upstreams.
		resp, err := http.Get(base + "/v1/healthz")
		if err != nil {
			t.Fatalf("healthz unreachable mid-soak: %v", err)
		}
		var h server.Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("healthz decode: %v", err)
		}
		resp.Body.Close()
		if !validStatus[h.Status] {
			t.Fatalf("healthz status = %q, outside the documented enum", h.Status)
		}
		if h.Breakers != nil {
			if s := h.Breakers["prices"].State; s != source.BreakerClosed && s != source.BreakerOpen && s != source.BreakerHalfOpen {
				t.Fatalf("breaker state = %q", s)
			}
		}

		// Every successfully served report must be internally sound:
		// finite profits, version never regressing.
		resp, err = http.Get(base + "/v1/report")
		if err != nil {
			t.Fatalf("report unreachable mid-soak: %v", err)
		}
		if resp.StatusCode == http.StatusOK {
			var rep distrib.ReportJSON
			if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
				t.Fatalf("report decode: %v", err)
			}
			for _, r := range rep.Results {
				if math.IsNaN(r.ProfitUSD) || math.IsInf(r.ProfitUSD, 0) || math.IsNaN(r.Input) {
					t.Fatalf("non-finite result served: %+v", r)
				}
			}
			if rep.Version < lastVersion {
				t.Fatalf("version regressed: %d after %d", rep.Version, lastVersion)
			}
			if firstVersion == 0 {
				firstVersion = rep.Version
			}
			lastVersion = rep.Version
			reports++
		}
		resp.Body.Close()
		time.Sleep(20 * time.Millisecond)
	}

	// Liveness: reports were served and versions advanced past the first
	// one despite errors, stalls, corruption, and panics.
	if reports == 0 {
		t.Fatal("no report ever served during the soak")
	}
	if lastVersion <= firstVersion {
		t.Fatalf("pipeline wedged: version stuck at %d", lastVersion)
	}
	// The soak must have actually exercised the fault paths.
	if s := inj.Stats(); s.Errors+s.Stalls+s.Delays+s.Corruptions == 0 {
		t.Fatalf("injector delivered no faults: %+v — the soak tested nothing", s)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down under chaos")
	}

	// No goroutine leaks: stalled injections, evicted scans, and SSE
	// heartbeat tickers must all unwind with the context.
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
