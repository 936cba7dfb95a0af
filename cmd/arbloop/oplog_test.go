package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"arbloop"
	"arbloop/internal/chain"
	"arbloop/internal/distrib"
	"arbloop/internal/faults"
	"arbloop/internal/oplog"
	"arbloop/internal/server"
	"arbloop/internal/source"
)

// testLog collects serve/replay log lines for assertions.
type testLog struct {
	mu    sync.Mutex
	lines []string
}

func (tl *testLog) logf(format string, a ...any) {
	tl.mu.Lock()
	tl.lines = append(tl.lines, fmt.Sprintf(format, a...))
	tl.mu.Unlock()
}

func (tl *testLog) contains(sub string) bool {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for _, l := range tl.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// oplogServeStack builds a fresh chain + scanner pair over the synthetic
// market (convex strategy, so warm starts are live end to end).
func oplogServeStack(t *testing.T) (*chain.State, *arbloop.Scanner, arbloop.PoolSource) {
	t.Helper()
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
		arbloop.WithTopK(5),
		arbloop.WithStrategyName(arbloop.StrategyConvex))
	if err != nil {
		t.Fatal(err)
	}
	return state, sc, src
}

// runOplogServe boots serve with the given oplog config and returns the
// base URL plus a shutdown func that waits for a clean exit.
func runOplogServe(t *testing.T, cfg serveConfig) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	cfg.addr = "127.0.0.1:0"
	cfg.ready = ready
	go func() { done <- serve(ctx, cfg) }()
	select {
	case addr := <-ready:
		return "http://" + addr, func() error {
			cancel()
			select {
			case err := <-done:
				return err
			case <-time.After(10 * time.Second):
				return context.DeadlineExceeded
			}
		}
	case err := <-done:
		cancel()
		t.Fatalf("serve exited early: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("server never came up")
	}
	panic("unreachable")
}

// TestServeOplogRecordsAndPrimes is the end-to-end tentpole check:
// serve with -oplog records published blocks; a second serve over the
// same directory recovers the entries and primes the scanner from them.
func TestServeOplogRecordsAndPrimes(t *testing.T) {
	dir := t.TempDir()
	state, sc, src := oplogServeStack(t)
	lg := &testLog{}
	base, shutdown := runOplogServe(t, serveConfig{
		state:         state,
		scanner:       sc,
		source:        src,
		blockInterval: 25 * time.Millisecond,
		noise:         2,
		writeTimeout:  server.DefaultWriteTimeout,
		oplogDir:      dir,
		oplogSync:     oplog.SyncPolicy{Mode: oplog.SyncAlways},
		logf:          lg.logf,
	})

	// Wait until several blocks have published and the oplog healthz
	// section shows them appended and written.
	deadline := time.Now().Add(15 * time.Second)
	var h server.Health
	for {
		if err := pollJSON(base+"/v1/healthz", &h); err != nil {
			t.Fatal(err)
		}
		if h.Oplog != nil && h.Oplog.Written >= 3 && h.Height >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("oplog never recorded: health oplog = %+v, height %d", h.Oplog, h.Height)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if h.Status != "ok" {
		t.Errorf("recording service status = %q, want ok", h.Status)
	}
	if h.Oplog.Degraded || h.Oplog.Dropped != 0 {
		t.Errorf("healthy oplog reports %+v", h.Oplog)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("serve shutdown: %v", err)
	}

	// The directory replays cleanly: increasing versions, real reports,
	// and at least one entry carrying warm-start plans.
	var versions []uint64
	sawWarm, sawDirty := false, false
	st, err := oplog.Replay(dir, func(e oplog.Entry) error {
		versions = append(versions, e.Version)
		if len(e.Warm) > 0 {
			sawWarm = true
		}
		if len(e.DirtyPools) > 0 {
			sawDirty = true
		}
		if e.Report.Version != e.Version {
			t.Fatalf("entry v%d wraps report v%d", e.Version, e.Report.Version)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries < 3 {
		t.Fatalf("recovered %d entries, want >= 3", st.Entries)
	}
	for i := 1; i < len(versions); i++ {
		if versions[i] <= versions[i-1] {
			t.Fatalf("versions not increasing: %v", versions)
		}
	}
	if !sawWarm {
		t.Error("no entry recorded warm-start plans (convex strategy on the paper market finds loops)")
	}
	if !sawDirty {
		t.Error("no entry recorded dirty pools (noise swaps move reserves every block)")
	}

	// Restart over the same directory with a fresh scanner: priming must
	// run before the first scan, and the service publishes as usual.
	state2, sc2, src2 := oplogServeStack(t)
	lg2 := &testLog{}
	base2, shutdown2 := runOplogServe(t, serveConfig{
		state:         state2,
		scanner:       sc2,
		source:        src2,
		blockInterval: 25 * time.Millisecond,
		noise:         2,
		writeTimeout:  server.DefaultWriteTimeout,
		oplogDir:      dir,
		oplogSync:     oplog.SyncPolicy{Mode: oplog.SyncAlways},
		logf:          lg2.logf,
	})
	defer func() {
		if err := shutdown2(); err != nil {
			t.Errorf("second serve shutdown: %v", err)
		}
	}()
	if !lg2.contains("oplog: primed from") {
		t.Error("restart did not prime from the recovered log")
	}
	var rep distrib.ReportJSON
	if err := pollJSON(base2+"/v1/report", &rep); err != nil {
		t.Fatal(err)
	}
	if rep.LoopsDetected == 0 {
		t.Errorf("primed restart served an empty report: %+v", rep)
	}
	// The dirtiness priors reached the scanner's telemetry: at least one
	// pool EMA starts non-zero before steady state would have built it.
	dirt := sc2.Metrics().PoolDirtiness()
	primedPools := 0
	for _, v := range dirt {
		if v > 0 {
			primedPools++
		}
	}
	if primedPools == 0 {
		t.Error("no pool dirtiness EMA primed from the recovered tail")
	}
}

// TestServeOplogDiskFaultDegradesHealthz injects a disk-full cliff under
// the oplog and asserts the failure is contained: /v1/healthz flips to
// degraded with the oplog section carrying the error, while the scan
// loop keeps publishing fresh reports.
func TestServeOplogDiskFaultDegradesHealthz(t *testing.T) {
	dir := t.TempDir()
	state, sc, src := oplogServeStack(t)
	inj := faults.NewFile(faults.FileSpec{FailAfterBytes: 2048})
	base, shutdown := runOplogServe(t, serveConfig{
		state:         state,
		scanner:       sc,
		source:        src,
		blockInterval: 25 * time.Millisecond,
		noise:         2,
		writeTimeout:  server.DefaultWriteTimeout,
		oplogDir:      dir,
		oplogSync:     oplog.SyncPolicy{Mode: oplog.SyncAlways},
		oplogOpenFile: func(path string) (oplog.File, error) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
			if err != nil {
				return nil, err
			}
			return inj.Wrap(f), nil
		},
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("serve shutdown: %v", err)
		}
	}()

	deadline := time.Now().Add(15 * time.Second)
	var h server.Health
	for {
		if err := pollJSON(base+"/v1/healthz", &h); err != nil {
			t.Fatal(err)
		}
		if h.Oplog != nil && h.Oplog.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("oplog never degraded under ENOSPC: %+v", h.Oplog)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if h.Status != "degraded" {
		t.Errorf("status = %q with a degraded oplog, want degraded", h.Status)
	}
	if h.Oplog.LastError == "" {
		t.Error("degraded oplog section carries no last_error")
	}

	// Containment: the scan loop keeps serving — the report version
	// still advances after the disk died.
	var before distrib.ReportJSON
	if err := pollJSON(base+"/v1/report", &before); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		var after distrib.ReportJSON
		if err := pollJSON(base+"/v1/report", &after); err != nil {
			t.Fatal(err)
		}
		if after.Version > before.Version {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scan loop stalled after oplog degrade: stuck at v%d", before.Version)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestReplayServesRecordedHistory records a short log directly, then
// boots the replay subcommand's stack over it and reads the history back
// through /v1/report.
func TestReplayServesRecordedHistory(t *testing.T) {
	dir := t.TempDir()
	l, err := oplog.Open(dir, oplog.Options{Sync: oplog.SyncPolicy{Mode: oplog.SyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	const entries = 5
	for v := uint64(1); v <= entries; v++ {
		rep := distrib.Encode(arbloop.ScanReport{Strategy: "ConvexOptimization", LoopsDetected: int(v)}, v, int64(100+v))
		if err := l.Append(oplog.Entry{Version: v, Height: int64(100 + v), Report: rep}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	lg := &testLog{}
	go func() {
		done <- runReplay(ctx, replayConfig{
			dir:      dir,
			addr:     "127.0.0.1:0",
			interval: 5 * time.Millisecond,
			logf:     lg.logf,
			ready:    ready,
		})
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("replay exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("replay server never came up")
	}

	// The pass ends holding the final recorded report.
	deadline := time.Now().Add(10 * time.Second)
	var rep distrib.ReportJSON
	for {
		if err := pollJSON(base+"/v1/report", &rep); err == nil && rep.Version == entries {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay never reached the last entry: at v%d", rep.Version)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rep.Height != 100+entries || rep.LoopsDetected != entries {
		t.Errorf("final replayed report = %+v", rep)
	}
	// Replayed history is never stale (WithStaleAfter(0)).
	var h server.Health
	if err := pollJSON(base+"/v1/healthz", &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("replay health = %q, want ok", h.Status)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("replay exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("replay never shut down")
	}
}

// TestReplayEmptyDirErrors: replaying nothing is a misconfiguration.
func TestReplayEmptyDirErrors(t *testing.T) {
	if err := runReplay(context.Background(), replayConfig{dir: t.TempDir(), addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("replay of an empty directory succeeded")
	}
}
