package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"testing"
	"time"

	"arbloop"
	"arbloop/internal/amm"
	"arbloop/internal/chain"
	"arbloop/internal/distrib"
	"arbloop/internal/server"
	"arbloop/internal/source"
)

func TestScanJSONFlag(t *testing.T) {
	path := snapshotFile(t)
	if err := run([]string{"scan", "-snapshot", path, "-top", "3", "-json"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"scan", "-snapshot", path, "-json", "-stream"}); err == nil {
		t.Error("-json -stream accepted")
	}
}

func TestScanMaxCyclesFlag(t *testing.T) {
	path := snapshotFile(t)
	if err := run([]string{"scan", "-snapshot", path, "-max-cycles", "1"}); err == nil {
		t.Error("max-cycles 1 on the §VI market: want enumeration cap error")
	}
}

// TestServeSmoke boots the full serving stack on an ephemeral port and
// checks the three endpoints against a producing chain.
func TestServeSmoke(t *testing.T) {
	snap, err := loadOrGenerate("", 0)
	if err != nil {
		t.Fatal(err)
	}
	filtered := snap.FilterPools(30_000, 100)
	state := chain.NewState(0)
	if err := source.MirrorToChain(state, filtered, serveScale); err != nil {
		t.Fatal(err)
	}
	src := arbloop.FromChain(state, serveScale)
	sc, err := arbloop.NewScanner(src, arbloop.NewStaticOracle(filtered.PricesUSD),
		arbloop.WithTopK(3))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, serveConfig{
			addr:          "127.0.0.1:0",
			pprofAddr:     "127.0.0.1:0",
			state:         state,
			scanner:       sc,
			source:        src,
			blockInterval: 25 * time.Millisecond,
			noise:         2,
			maxConns:      64, // exercise the accept limiter end to end
			writeTimeout:  server.DefaultWriteTimeout,
			ready:         ready,
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

	// The priming scan publishes the first report before any block.
	var rep distrib.ReportJSON
	if err := pollJSON(base+"/v1/report", &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Version == 0 || rep.LoopsDetected == 0 {
		t.Errorf("report = v%d loops=%d", rep.Version, rep.LoopsDetected)
	}

	// Blocks advance: health eventually reports height > 0 and a cache
	// hit (topology never changes on the simulator).
	deadline := time.Now().Add(10 * time.Second)
	var h server.Health
	for {
		if err := pollJSON(base+"/v1/healthz", &h); err != nil {
			t.Fatal(err)
		}
		if h.Height > 0 && h.TopologyCacheHit {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no warm block scan: health = %+v", h)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if h.Status != "ok" || h.Scans == 0 {
		t.Errorf("health = %+v", h)
	}
	// The delta engine's counters are exposed: after warm blocks the
	// fast path must have engaged (delta scans > 0) behind one capture.
	if h.Delta == nil {
		t.Fatal("healthz has no delta section")
	}
	if h.Delta.FullScans == 0 || h.Delta.Shards != 1 {
		t.Errorf("delta health = %+v, want at least one capture of the one state", h.Delta)
	}
	deadline = time.Now().Add(10 * time.Second)
	for h.Delta.DeltaScans == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("delta path never engaged: %+v", h.Delta)
		}
		time.Sleep(25 * time.Millisecond)
		if err := pollJSON(base+"/v1/healthz", &h); err != nil {
			t.Fatal(err)
		}
	}

	// The connection tier is wired end to end: healthz carries the
	// tracker's gauges (the limit listener counts this very poll) and,
	// on a unix host, the fd-headroom probe.
	if h.Connections == nil {
		t.Fatal("healthz has no connections section")
	}
	if h.Connections.Accepted == 0 || h.Connections.Peak == 0 {
		t.Errorf("connections = %+v, want accepted and peak > 0", h.Connections)
	}
	if h.Connections.MaxConns != 64 {
		t.Errorf("connections max = %d, want the -max-conns value 64", h.Connections.MaxConns)
	}

	// Distribution-tier headers survive the full stack. `If-None-Match: *`
	// matches any current ETag, so the 304 check is immune to the
	// 25ms-block version churn.
	resp, err := http.Get(base + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if et := resp.Header.Get("ETag"); et == "" {
		t.Error("report response has no ETag")
	}
	if v := resp.Header.Get("Vary"); v != "Accept-Encoding" {
		t.Errorf("Vary = %q", v)
	}
	req, err := http.NewRequest(http.MethodGet, base+"/v1/report", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", "*")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match: * returned %d, want 304", resp.StatusCode)
	}
	req, err = http.NewRequest(http.MethodGet, base+"/v1/report?top=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err = (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// Prefix slices are identity-encoded by design; only the full report
	// has a cached gzip variant.
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		t.Errorf("?top=1 Content-Encoding = %q, want identity", ce)
	}
	var top distrib.ReportJSON
	if err := pollJSON(base+"/v1/report?top=1", &top); err != nil {
		t.Fatal(err)
	}
	if len(top.Results) > 1 {
		t.Errorf("?top=1 returned %d results", len(top.Results))
	}

	// Hold an SSE stream open across shutdown: serve must still exit
	// promptly because Server.Close ends the stream before Shutdown waits
	// on active requests.
	streamResp, err := http.Get(base + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		_, _ = io.Copy(io.Discard, streamResp.Body)
	}()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
	select {
	case <-streamDone:
	case <-time.After(10 * time.Second):
		t.Fatal("open SSE stream outlived the server")
	}
}

// pollJSON GETs url until 200 (reports start as 503) and decodes the body.
func pollJSON(url string, into any) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil && resp.StatusCode == http.StatusOK {
			defer resp.Body.Close()
			return json.NewDecoder(resp.Body).Decode(into)
		}
		if err == nil {
			resp.Body.Close()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("GET %s never returned 200 (last err %v)", url, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// badSource always fails — the RPC-down case.
type badSource struct{}

func (badSource) Pools(context.Context) ([]*amm.Pool, error) {
	return nil, errors.New("rpc down")
}

// TestServeFeedFailureDegrades: a dead pool source must not tear the
// service down. The feed absorbs the exhausted retry budget (FailDegrade),
// HTTP keeps answering, and /v1/healthz carries the rising feed failure
// counters as the operator alarm — then a clean shutdown still works.
func TestServeFeedFailureDegrades(t *testing.T) {
	state := chain.NewState(0)
	if err := state.AddPool("p1", "X", "Y", big.NewInt(1_000_000), big.NewInt(1_000_000), 30); err != nil {
		t.Fatal(err)
	}
	sc, err := arbloop.NewScanner(badSource{}, arbloop.NewStaticOracle(map[string]float64{"X": 1, "Y": 1}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, serveConfig{
			addr:          "127.0.0.1:0",
			state:         state,
			scanner:       sc,
			source:        badSource{},
			blockInterval: time.Hour,
			ready:         ready,
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

	// The feed never succeeds: healthz must stay answerable, report the
	// failures, and never publish a report (status stays "starting").
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h server.Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if h.Feed != nil && h.Feed.Exhausted > 0 {
			if h.Status != "starting" {
				t.Errorf("status = %q, want starting (no report ever published)", h.Status)
			}
			if h.Feed.ConsecutiveFailures == 0 {
				t.Errorf("feed = %+v, want consecutive failures > 0", h.Feed)
			}
			break
		}
		select {
		case err := <-done:
			t.Fatalf("serve died on feed failure: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("feed failures never surfaced: %+v", h.Feed)
		}
		time.Sleep(25 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
}
