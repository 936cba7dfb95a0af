package main

import (
	"context"
	"fmt"
	"math"

	"arbloop"
	"arbloop/internal/distrib"
)

// convexRelTol is the documented warm-start tolerance: a delta scan's
// warm-started convex results agree with a cold full scan's within 1e-6
// relative profit.
const convexRelTol = 1e-6

// verify re-scans every sampled version that the stream client was
// served, with a fresh full-scan Scanner (delta scans off; Convex cold
// started), and compares the served report with the fresh one: identical
// for MaxMax, within convexRelTol relative profit for Convex. It returns
// how many versions were checked and the mismatches.
func (p *pipeline) verify() (int, checkLog) {
	var log checkLog
	convex := p.wl.strategy == arbloop.StrategyConvex
	var strat arbloop.Strategy = arbloop.MaxMaxStrategy{}
	if convex {
		strat = arbloop.ConvexStrategy{Options: arbloop.ConvexOptions{ColdStart: true}}
	}
	sc, err := arbloop.NewScanner(arbloop.StaticPools(nil), arbloop.NewStaticOracle(p.pricesUSD),
		arbloop.WithLoopLengths(p.wl.loopLen, p.wl.loopLen),
		arbloop.WithStrategy(strat),
		arbloop.WithTopK(serveTopK),
		arbloop.WithDeltaScans(false))
	if err != nil {
		log.failf("verification scanner: %v", err)
		return 0, log
	}
	checked := 0
	for _, s := range p.samples {
		served, ok := p.client.served[s.version]
		if !ok {
			continue // coalesced before it reached the client
		}
		vr, err := sc.ScanVersioned(context.Background(), arbloop.PoolUpdate{Version: s.version, Height: s.height, Pools: s.pools})
		if err != nil {
			log.failf("re-scan of version %d: %v", s.version, err)
			continue
		}
		checked++
		fresh := distrib.Encode(vr.Report, s.version, s.height)
		if msg := compareReports(served, fresh, convex); msg != "" {
			log.failf("version %d (height %d): served report differs from a fresh full scan: %s", s.version, s.height, msg)
		}
	}
	if checked == 0 {
		log.failf("no sampled version reached the stream client")
	}
	return checked, log
}

// compareReports returns why a served report does not match a fresh full
// scan of the same pools ("" when it does). Fields that describe how the
// scan ran rather than what it found (parallelism, cache hit, the delta
// work split) are not compared.
func compareReports(served, fresh distrib.ReportJSON, convex bool) string {
	switch {
	case served.Version != fresh.Version || served.Height != fresh.Height:
		return fmt.Sprintf("coordinates v%d h%d, want v%d h%d", served.Version, served.Height, fresh.Version, fresh.Height)
	case served.Strategy != fresh.Strategy:
		return fmt.Sprintf("strategy %q, want %q", served.Strategy, fresh.Strategy)
	case served.Tokens != fresh.Tokens || served.Pools != fresh.Pools || served.CyclesExamined != fresh.CyclesExamined:
		return fmt.Sprintf("graph %d tokens/%d pools/%d cycles, want %d/%d/%d",
			served.Tokens, served.Pools, served.CyclesExamined, fresh.Tokens, fresh.Pools, fresh.CyclesExamined)
	case served.LoopsDetected != fresh.LoopsDetected || served.Failed != fresh.Failed:
		return fmt.Sprintf("%d loops (%d failed), want %d (%d)", served.LoopsDetected, served.Failed, fresh.LoopsDetected, fresh.Failed)
	case served.Degraded != fresh.Degraded:
		return fmt.Sprintf("degraded %v, want %v", served.Degraded, fresh.Degraded)
	case len(served.Results) != len(fresh.Results):
		return fmt.Sprintf("%d results, want %d", len(served.Results), len(fresh.Results))
	}
	if !convex {
		for i := range served.Results {
			if !sameResult(served.Results[i], fresh.Results[i]) {
				return fmt.Sprintf("rank %d: %+v, want %+v", i+1, served.Results[i], fresh.Results[i])
			}
		}
		return ""
	}
	return convexAgree(served.Results, fresh.Results, convexRelTol)
}

// sameResult is exact equality of two wire results (an absent net-token
// map equals an empty one).
func sameResult(a, b distrib.ResultJSON) bool {
	if a.Index != b.Index || a.Loop != b.Loop || a.Strategy != b.Strategy ||
		a.StartToken != b.StartToken || a.Input != b.Input || a.ProfitUSD != b.ProfitUSD ||
		len(a.NetTokens) != len(b.NetTokens) {
		return false
	}
	for tok, v := range a.NetTokens {
		if w, ok := b.NetTokens[tok]; !ok || w != v {
			return false
		}
	}
	return true
}

// convexAgree checks warm-started convex results against cold ones: the
// profit at every rank agrees within tol (relative), and every served
// loop is in the fresh ranking at a profit within tol — unless it tied
// the fresh ranking's cut-off, where either loop may make the top K.
func convexAgree(served, fresh []distrib.ResultJSON, tol float64) string {
	byIndex := make(map[int]float64, len(fresh))
	for _, r := range fresh {
		byIndex[r.Index] = r.ProfitUSD
	}
	for i := range served {
		if !relClose(served[i].ProfitUSD, fresh[i].ProfitUSD, tol) {
			return fmt.Sprintf("rank %d profit %.12g, want %.12g", i+1, served[i].ProfitUSD, fresh[i].ProfitUSD)
		}
		want, ok := byIndex[served[i].Index]
		switch {
		case ok && !relClose(served[i].ProfitUSD, want, tol):
			return fmt.Sprintf("loop %s profit %.12g, want %.12g", served[i].Loop, served[i].ProfitUSD, want)
		case !ok && !relClose(served[i].ProfitUSD, fresh[len(fresh)-1].ProfitUSD, tol):
			return fmt.Sprintf("loop %s ranked %d is not in the fresh top %d", served[i].Loop, i+1, len(fresh))
		}
	}
	return ""
}

// relClose reports |a−b| ≤ tol·max(|a|, |b|), with an absolute floor of
// 1e-9 so two zeros (or dust) compare equal instead of dividing by zero.
func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	return d <= tol*math.Max(math.Abs(a), math.Abs(b)) || d <= 1e-9
}
