// Report wire encoding, shared by the HTTP server and `arbloop scan
// -json` so a client sees the identical JSON whether it scans locally or
// queries a running service. It lives in distrib (rather than server)
// because the distribution tier owns every client-facing byte: the frame
// builder needs to know the exact wire layout to pre-slice it.
package distrib

import (
	"encoding/json"
	"io"

	"arbloop/internal/scan"
)

// ResultJSON is the wire encoding of one scanned loop.
type ResultJSON struct {
	// Index is the loop's position in detection order.
	Index int `json:"index"`
	// Loop is the human-readable route (A→B→C→A).
	Loop string `json:"loop"`
	// Strategy names the optimizer that produced the plan.
	Strategy string `json:"strategy"`
	// StartToken is the input token for single-start strategies; empty
	// when the plan nets profit in several tokens (ConvexOptimization).
	StartToken string `json:"start_token,omitempty"`
	// Input is the start-token input amount (single-start strategies).
	Input float64 `json:"input,omitempty"`
	// ProfitUSD is the monetized profit at CEX prices.
	ProfitUSD float64 `json:"profit_usd"`
	// NetTokens is the net amount acquired per token.
	NetTokens map[string]float64 `json:"net_tokens,omitempty"`
}

// ReportJSON is the wire encoding of one ranked scan report. Results must
// stay the last field: the frame builder slices the encoded bytes at
// per-result boundaries so `?top=N` responses are prefixes of the full
// encoding plus a constant tail.
type ReportJSON struct {
	// Version is the feed version the scan consumed (0 for one-shot
	// scans with no feed).
	Version uint64 `json:"version,omitempty"`
	// Height is the source block height when known.
	Height int64 `json:"height,omitempty"`
	// Strategy and Parallelism echo the scan configuration.
	Strategy    string `json:"strategy"`
	Parallelism int    `json:"parallelism"`
	// Tokens and Pools count the scanned graph.
	Tokens int `json:"tokens"`
	Pools  int `json:"pools"`
	// CyclesExamined counts undirected candidate cycles.
	CyclesExamined int `json:"cycles_examined"`
	// LoopsDetected counts profitable orientations found.
	LoopsDetected int `json:"loops_detected"`
	// Failed counts loops whose optimization errored.
	Failed int `json:"failed"`
	// TopologyCacheHit reports whether detection reused cached cycles.
	TopologyCacheHit bool `json:"topology_cache_hit"`
	// LoopsReoptimized and LoopsReused expose the delta-scan work split:
	// how many loops ran the optimizer this scan vs. merged from the
	// previous scan's results.
	LoopsReoptimized int `json:"loops_reoptimized"`
	LoopsReused      int `json:"loops_reused"`
	// ShardsScanned is 1 when the delta engine rescanned its captured
	// state for this report — a capture, or a delta scan that re-oriented
	// or re-optimized a loop — and 0 otherwise (always 0 for a plain full
	// scan).
	ShardsScanned int `json:"shards_scanned"`
	// Degraded reports that the scan behind this report ran on fallback
	// (last-known-good) prices: best-effort results, not fresh ones.
	Degraded bool `json:"degraded"`
	// Results is ranked by ProfitUSD descending. It must stay the
	// struct's last field — the frame builder's ?top=N prefix slicer
	// depends on its encoding closing the JSON object (enforced
	// structurally by arblint's lastfield analyzer and at runtime by the
	// frame equivalence tests).
	//
	//arblint:lastfield
	Results []ResultJSON `json:"results"`
}

// Encode converts a scan report into its wire form. version and height
// stamp the feed coordinates (pass zeros for one-shot scans).
func Encode(rep scan.Report, version uint64, height int64) ReportJSON {
	out := ReportJSON{
		Version:          version,
		Height:           height,
		Strategy:         rep.Strategy,
		Parallelism:      rep.Parallelism,
		Tokens:           rep.Tokens,
		Pools:            rep.Pools,
		CyclesExamined:   rep.CyclesExamined,
		LoopsDetected:    rep.LoopsDetected,
		Failed:           rep.Failed,
		TopologyCacheHit: rep.TopologyCacheHit,
		LoopsReoptimized: rep.LoopsReoptimized,
		LoopsReused:      rep.LoopsReused,
		ShardsScanned:    rep.ShardsScanned,
		Degraded:         rep.Degraded,
		Results:          make([]ResultJSON, 0, len(rep.Results)),
	}
	for _, r := range rep.Results {
		res := ResultJSON{
			Index:      r.Index,
			Strategy:   r.Result.Strategy,
			StartToken: r.Result.StartToken,
			Input:      r.Result.Input,
			ProfitUSD:  r.Result.Monetized,
			NetTokens:  r.Result.NetTokens,
		}
		if r.Loop != nil {
			res.Loop = r.Loop.String()
		}
		out.Results = append(out.Results, res)
	}
	return out
}

// WriteIndented writes the report as indented JSON — the `arbloop scan
// -json` output path.
func (r ReportJSON) WriteIndented(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
