// Example liveservice wires the full live opportunity stack in-process —
// chain simulator → block hook → versioned pool feed → topology-cached
// scanner → HTTP/SSE server — then plays HTTP client against itself:
// fetches the ranked report, reads a few per-block SSE events, and checks
// the health probe. This is `arbloop serve` in miniature, runnable
// without opening a port you have to remember to curl.
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"arbloop"
	"arbloop/internal/chain"
	"arbloop/internal/distrib"
	"arbloop/internal/server"
	"arbloop/internal/source"
)

const scale = 1_000_000

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. A market on the chain simulator, so reserves move per block.
	snap, err := arbloop.GenerateMarket(arbloop.DefaultGeneratorConfig())
	if err != nil {
		return err
	}
	filtered := snap.FilterPools(30_000, 100)
	state := chain.NewState(time.Now().Unix())
	if err := source.MirrorToChain(state, filtered, scale); err != nil {
		return err
	}

	// 2. Feed + scanner: block hook → versioned updates → cached scans.
	src := arbloop.FromChain(state, scale)
	sc, err := arbloop.NewScanner(src, arbloop.NewStaticOracle(filtered.PricesUSD),
		arbloop.WithTopK(5))
	if err != nil {
		return err
	}
	watcher := arbloop.NewWatcher(src, arbloop.WithHeightProbe(state.Height))
	state.OnBlock(func(int64) { watcher.Notify() })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = watcher.Run(ctx, 0) }()

	// 3. Server: every versioned scan is published into the atomic store
	// and fanned out to SSE subscribers.
	srv := server.New()
	go func() {
		for vr := range sc.Watch(ctx, watcher) {
			if vr.Err != nil {
				continue
			}
			_ = srv.Publish(distrib.Encode(vr.Report, vr.Version, vr.Height), vr.Elapsed)
		}
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// 4. Drive three blocks with a retail swap in between, so the stream
	// has something to say.
	watcher.Notify() // prime the first report
	go func() {
		ids := state.PoolIDs()
		for i := 0; ; i++ {
			time.Sleep(300 * time.Millisecond)
			if len(ids) > 0 {
				id := ids[i%len(ids)]
				if t0, _, err := state.PoolTokens(id); err == nil {
					if r0, _, err := state.Reserves(id); err == nil {
						amt := new(big.Int).Div(r0, big.NewInt(500))
						_, _ = state.Swap(id, t0, amt)
					}
				}
			}
			state.Block(nil)
		}
	}()

	// 5. Consume like a client: report, stream, health.
	if err := waitForReport(ts.URL); err != nil {
		return err
	}
	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		return err
	}
	body := make([]byte, 200)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	fmt.Printf("GET /v1/report → %s\n%s…\n\n", resp.Status, body[:n])

	fmt.Println("GET /v1/stream →")
	if err := streamEvents(ctx, ts.URL, 3); err != nil {
		return err
	}

	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		return err
	}
	n, _ = resp.Body.Read(body)
	resp.Body.Close()
	fmt.Printf("\nGET /v1/healthz → %s\n%s", resp.Status, body[:n])
	return nil
}

// waitForReport polls until the first scan has been published.
func waitForReport(base string) error {
	for i := 0; i < 100; i++ {
		resp, err := http.Get(base + "/v1/report")
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("no report published in time")
}

// streamEvents reads n SSE `report` events and prints one line per block.
func streamEvents(ctx context.Context, base string, n int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stream", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	seen := 0
	for scanner.Scan() && seen < n {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		seen++
		payload := strings.TrimPrefix(line, "data: ")
		if len(payload) > 120 {
			payload = payload[:120] + "…"
		}
		fmt.Printf("  event %d: %s\n", seen, payload)
	}
	return scanner.Err()
}
