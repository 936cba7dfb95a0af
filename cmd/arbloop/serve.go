// The serve subcommand: the live opportunity service. It mirrors a market
// snapshot onto the chain simulator, produces blocks on a timer with
// retail noise flow moving reserves, and wires the full serving stack —
// chain block hook → feed.Watcher → Scanner.Watch (topology-cached scans)
// → internal/server (atomically swapped report store + SSE fan-out).
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	rtpprof "runtime/pprof"
	"strings"
	"syscall"
	"time"

	"arbloop"
	"arbloop/internal/chain"
	"arbloop/internal/distrib"
	"arbloop/internal/faults"
	"arbloop/internal/oplog"
	"arbloop/internal/server"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
)

// serveScale is the integer base units per whole token on the simulator.
const serveScale = 1_000_000

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	snapshot := fs.String("snapshot", "", "snapshot JSON (default: generate synthetic)")
	seed := fs.Int64("seed", 0, "generator seed when generating")
	loopLen := fs.Int("len", 3, "loop length")
	strategyName := fs.String("strategy", arbloop.StrategyMaxMax,
		"per-loop strategy: "+strings.Join(arbloop.StrategyNames(), ", "))
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof and expvar on this address (empty = off)")
	mutexProfile := fs.Int("mutex-profile", 0,
		"mutex contention profiling: sample 1/n of contended lock events (0 = off); read via -pprof's /debug/pprof/mutex")
	blockProfile := fs.Int("block-profile", 0,
		"goroutine blocking profiling: sample blocking events lasting >= n ns (0 = off); read via -pprof's /debug/pprof/block")
	top := fs.Int("top", 20, "serve the N most profitable loops (0 = all)")
	minProfit := fs.Float64("min-profit", 0, "drop loops predicted below this USD profit")
	maxCycles := fs.Int("max-cycles", 0, "fail a scan past this many enumerated cycles (0 = unlimited)")
	blockInterval := fs.Duration("block-interval", 2*time.Second, "simulator block time")
	noise := fs.Int("noise", 4, "random retail swaps per block (moves reserves)")
	blocks := fs.Int("blocks", 0, "stop producing blocks after N (0 = forever); the server keeps running")
	delta := fs.Bool("delta", true, "delta scans: re-optimize only loops touching pools that traded")
	maxConns := fs.Int("max-conns", 0, "max concurrent client connections (0 = unlimited); excess wait in the kernel accept queue")
	writeTimeout := fs.Duration("write-timeout", server.DefaultWriteTimeout,
		"per-client SSE write deadline; stalled consumers past it are evicted (0 = never)")
	chaos := fs.String("chaos", "",
		"dev-only fault injection on the pool and price sources: seed=N,err=P,stall=P,corrupt=P,latency=DUR@P (empty = off)")
	stageTimeout := fs.Duration("stage-timeout", 0,
		"per-scan price-fetch deadline; a hung price source cancels that scan, not the process (0 = unbounded)")
	refreshTimeout := fs.Duration("refresh-timeout", 0,
		"per-refresh pool-source deadline; a hung poll fails the refresh instead of wedging the feed (0 = unbounded)")
	staleAfter := fs.Duration("stale-after", server.DefaultStaleAfter,
		"report age past which /v1/healthz reports status=stale (0 = never)")
	heartbeat := fs.Duration("heartbeat", server.DefaultHeartbeat,
		"SSE heartbeat-comment interval on idle /v1/stream connections (0 = off)")
	oplogDir := fs.String("oplog", "",
		"durable opportunity log directory: append every published block for replay and restart priming (empty = off)")
	oplogFsync := fs.String("oplog-fsync", "",
		"oplog fsync policy: always | every=N | interval=DUR (default interval=1s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	chaosSpec, err := faults.ParseSpec(*chaos)
	if err != nil {
		return err
	}
	oplogSync, err := oplog.ParseSyncPolicy(*oplogFsync)
	if err != nil {
		return err
	}
	snap, err := loadOrGenerate(*snapshot, *seed)
	if err != nil {
		return err
	}
	filtered := snap.FilterPools(30_000, 100)

	// Mirror the filtered snapshot onto the chain simulator so reserves
	// actually move block to block.
	state := chain.NewState(time.Now().Unix())
	if err := source.MirrorToChain(state, filtered, serveScale); err != nil {
		return err
	}

	// Source stack, inside out: the raw backends, an optional chaos
	// injector (dev-only fault drills), and a price breaker outermost so
	// injected price faults exercise the same fallback path a real outage
	// would.
	var src arbloop.PoolSource = arbloop.FromChain(state, serveScale)
	var prices arbloop.PriceSource = arbloop.NewStaticOracle(filtered.PricesUSD)
	var inj *faults.Injector
	if chaosSpec.Enabled() {
		inj = faults.New(chaosSpec)
		src = inj.WrapPools(src)
		prices = inj.WrapPrices(prices)
	}
	breaker := arbloop.NewPriceBreaker(prices)
	sc, err := arbloop.NewScanner(src, breaker,
		arbloop.WithLoopLengths(*loopLen, *loopLen),
		arbloop.WithStrategyName(*strategyName),
		arbloop.WithMinProfitUSD(*minProfit),
		arbloop.WithMaxCycles(*maxCycles),
		arbloop.WithTopK(*top),
		arbloop.WithDeltaScans(*delta),
		arbloop.WithStageTimeout(*stageTimeout),
	)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve(ctx, serveConfig{
		addr:           *addr,
		pprofAddr:      *pprofAddr,
		mutexProfile:   *mutexProfile,
		blockProfile:   *blockProfile,
		state:          state,
		scanner:        sc,
		source:         src,
		breaker:        breaker,
		injector:       inj,
		refreshTimeout: *refreshTimeout,
		staleAfter:     *staleAfter,
		heartbeat:      *heartbeat,
		blockInterval:  *blockInterval,
		noise:          *noise,
		blocks:         *blocks,
		seed:           *seed,
		maxConns:       *maxConns,
		writeTimeout:   *writeTimeout,
		oplogDir:       *oplogDir,
		oplogSync:      oplogSync,
		logf:           func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	})
}

// serveConfig carries the assembled service pieces; split from cmdServe
// so tests can run the stack on an ephemeral port without flag parsing.
type serveConfig struct {
	addr string
	// pprofAddr, when non-empty, serves net/http/pprof plus expvar
	// (/debug/vars, including the telemetry registry summary) on its own
	// listener — opt-in, and never on the public report address.
	pprofAddr string
	// mutexProfile (SetMutexProfileFraction) and blockProfile
	// (SetBlockProfileRate) enable the runtime's contention profiles;
	// 0 leaves each off.
	mutexProfile int
	blockProfile int
	state        *chain.State
	scanner      *arbloop.Scanner
	source       arbloop.PoolSource
	// breaker, when non-nil, is the price breaker the scanner's price
	// source is wrapped in; its state feeds the healthz breakers section.
	breaker *arbloop.PriceBreaker
	// injector, when non-nil, is the chaos injector wrapping the sources
	// (-chaos flag); its counters mount on the telemetry registry.
	injector *faults.Injector
	// refreshTimeout bounds each feed poll; staleAfter and heartbeat tune
	// the server's staleness reporting and SSE keep-alives (see the
	// corresponding flags).
	refreshTimeout time.Duration
	staleAfter     time.Duration
	heartbeat      time.Duration
	blockInterval  time.Duration
	noise          int
	blocks         int
	seed           int64
	// maxConns caps concurrently accepted client connections (0 =
	// unlimited); writeTimeout is the per-client SSE write deadline
	// past which a stalled consumer is evicted.
	maxConns     int
	writeTimeout time.Duration
	// oplogDir, when non-empty, enables the durable opportunity log:
	// every published block is appended for replay and restart priming,
	// under the oplogSync fsync policy. oplogOpenFile, when non-nil,
	// replaces the log's segment-file opener — the test hook for
	// injecting disk faults (see internal/faults.FileInjector).
	oplogDir      string
	oplogSync     oplog.SyncPolicy
	oplogOpenFile func(path string) (oplog.File, error)
	logf          func(format string, a ...any)
	// ready, when non-nil, receives the bound listen address once the
	// HTTP server accepts connections (tests use port 0).
	ready chan<- string
}

// serve runs the block driver, the pool feed, the scan loop, and the HTTP
// server until ctx is cancelled. A fatal feed failure tears the whole
// service down (and is returned) rather than leaving the HTTP side up
// serving an ever-staler report as healthy.
func serve(ctx context.Context, cfg serveConfig) error {
	if cfg.logf == nil {
		cfg.logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Transient source failures are retried by the watcher (they reach
	// the log through the error handler). FailDegrade absorbs even an
	// exhausted retry budget: the feed keeps its subscriptions and the
	// last good update stays served, while /v1/healthz degrades to
	// status=degraded (consecutive failures) and eventually status=stale
	// — the operator alarm that replaces tearing the process down.
	watcher := arbloop.NewWatcher(cfg.source,
		arbloop.WithHeightProbe(cfg.state.Height),
		arbloop.WithWatcherErrorHandler(func(err error) { cfg.logf("feed refresh: %v", err) }),
		arbloop.WithWatcherFailureMode(arbloop.FailDegrade),
		arbloop.WithWatcherRefreshTimeout(cfg.refreshTimeout))
	cfg.state.OnBlock(func(int64) { watcher.Notify() })

	// One tracker spans the whole connection tier: the limit listener
	// counts accepts/active/peak, the SSE path counts evictions, and
	// /v1/healthz snapshots it all (with fd headroom) in one probe.
	tracker := distrib.NewTracker()
	srv := server.New(
		server.WithConnTracker(tracker),
		server.WithWriteTimeout(cfg.writeTimeout),
		server.WithStaleAfter(cfg.staleAfter),
		server.WithHeartbeat(cfg.heartbeat),
	)
	// /v1/healthz reports the delta engine's fast-path hit rate, feed
	// refresh/failure counts, and dependency breaker states alongside
	// liveness and report staleness.
	srv.SetDeltaStatsProbe(cfg.scanner.DeltaStats)
	srv.SetFeedStatsProbe(watcher.Stats)
	if cfg.breaker != nil {
		b := cfg.breaker
		srv.SetBreakerStatsProbe(func() map[string]arbloop.BreakerState {
			return map[string]arbloop.BreakerState{"prices": b.State()}
		})
		b.RegisterMetrics(srv.Telemetry())
	}
	if cfg.injector != nil {
		cfg.injector.RegisterMetrics(srv.Telemetry())
	}
	// Every layer's metrics mount into the server registry behind
	// GET /v1/metrics: the scan engine's stage histograms and dirtiness
	// EMAs, the feed's retry counters, and the convex solver's solve and
	// enumeration counts.
	cfg.scanner.Metrics().Register(srv.Telemetry())
	watcher.RegisterMetrics(srv.Telemetry())
	strategy.Telemetry().Register(srv.Telemetry())

	// Durable opportunity log: prime the scanner from the recovered tail
	// *before* any scan runs (the dirtiness EMAs resume where the last
	// process stopped), then open the log for appending.
	// Opening is the one fatal oplog error — a service asked to be
	// durable must not start silently non-durable; once running, disk
	// faults only degrade healthz (see oplog.Log).
	var olog *oplog.Log
	if cfg.oplogDir != "" {
		primeScannerFromOplog(cfg.oplogDir, cfg.scanner, cfg.logf)
		var err error
		olog, err = oplog.Open(cfg.oplogDir, oplog.Options{
			Sync:     cfg.oplogSync,
			OpenFile: cfg.oplogOpenFile,
		})
		if err != nil {
			return fmt.Errorf("serve: open oplog: %w", err)
		}
		defer func() {
			if err := olog.Close(); err != nil {
				cfg.logf("oplog close: %v", err)
			}
		}()
		srv.SetOplogStatsProbe(olog.Stats)
		olog.RegisterMetrics(srv.Telemetry())
		cfg.logf("oplog: appending to %s (fsync %s)", cfg.oplogDir, cfg.oplogSync)
	}
	errc := make(chan error, 1)

	// Contention profiling is opt-in (it taxes every lock operation);
	// the profiles are served by the -pprof listener.
	if cfg.mutexProfile > 0 {
		runtime.SetMutexProfileFraction(cfg.mutexProfile)
	}
	if cfg.blockProfile > 0 {
		runtime.SetBlockProfileRate(cfg.blockProfile)
	}

	// Opt-in pprof on its own listener, so profiling a production
	// service never exposes debug handlers on the report address.
	if cfg.pprofAddr != "" {
		pprofLn, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			return fmt.Errorf("serve: pprof listen %s: %w", cfg.pprofAddr, err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// expvar rides the same debug listener: /debug/vars carries the
		// telemetry registry summary next to the runtime's memstats.
		srv.Telemetry().PublishExpvar()
		mux.Handle("/debug/vars", expvar.Handler())
		pprofSrv := &http.Server{Handler: mux}
		go func() {
			<-ctx.Done()
			_ = pprofSrv.Close()
		}()
		go func() {
			cfg.logf("pprof on http://%s/debug/pprof/", pprofLn.Addr())
			if err := pprofSrv.Serve(pprofLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				cfg.logf("pprof server: %v", err)
			}
		}()
	}

	// Feed loop: every Notify (one per sealed block, plus the priming one
	// below) becomes one versioned pool update. Under FailDegrade, Run
	// absorbs refresh failures (healthz staleness is the alarm), so an
	// error here means the feed itself died — that still cancels the
	// service rather than serving an ever-staler report as healthy.
	go rtpprof.Do(ctx, rtpprof.Labels("loop", "feed"), func(ctx context.Context) {
		if err := watcher.Run(ctx, 0); err != nil {
			errc <- fmt.Errorf("feed: %w", err)
			cancel()
		}
	})
	watcher.Notify() // prime: serve a report before the first block lands

	// Scan loop: one topology-cached scan per consumed update, published
	// into the atomically swapped store and fanned out over SSE. The
	// pprof label tags CPU/mutex samples from this goroutine (and the
	// goroutines a full scan fans out to) with loop=scan.
	go rtpprof.Do(ctx, rtpprof.Labels("loop", "scan"), func(ctx context.Context) {
		for vr := range cfg.scanner.Watch(ctx, watcher) {
			if vr.Err != nil {
				cfg.logf("scan v%d failed: %v", vr.Version, vr.Err)
				continue
			}
			rep := distrib.Encode(vr.Report, vr.Version, vr.Height)
			if err := srv.Publish(rep, vr.Elapsed); err != nil {
				cfg.logf("publish v%d failed: %v", vr.Version, err)
				continue
			}
			if olog != nil {
				// Fire-and-forget: Append hands the entry to the background
				// syncer and never blocks the block loop; a failing disk
				// surfaces through the healthz oplog section instead.
				_ = olog.Append(oplog.Entry{
					Version:    vr.Version,
					Height:     vr.Height,
					UnixNano:   time.Now().UnixNano(),
					DirtyPools: vr.ChangedPools,
					Report:     rep,
				})
			}
			cfg.logf("block %d v%d: %d loops (%d reoptimized, %d reused), best $%.2f, scan %s (cache hit: %v)",
				vr.Height, vr.Version, vr.Report.LoopsDetected, vr.Report.LoopsReoptimized,
				vr.Report.LoopsReused, bestProfit(vr.Report),
				vr.Elapsed.Round(time.Microsecond), vr.Report.TopologyCacheHit)
		}
	})

	// Block driver: seal a block every interval, preceded by retail noise
	// swaps so reserves (and therefore opportunities) actually move.
	go rtpprof.Do(ctx, rtpprof.Labels("loop", "blocks"), func(ctx context.Context) {
		rng := rand.New(rand.NewSource(cfg.seed + 1))
		ids := cfg.state.PoolIDs()
		ticker := time.NewTicker(cfg.blockInterval)
		defer ticker.Stop()
		produced := 0
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			if cfg.blocks > 0 && produced >= cfg.blocks {
				continue
			}
			noiseSwaps(cfg.state, rng, ids, cfg.noise)
			cfg.state.Block(nil)
			produced++
		}
	})

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", cfg.addr, err)
	}
	// The accept limit back-pressures floods in the kernel queue instead
	// of exhausting descriptors; the tracker feeds the healthz gauges.
	ln = distrib.Limit(ln, cfg.maxConns, tracker)
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		<-ctx.Done()
		// Graceful drain: end SSE streams first — Shutdown waits for
		// active requests, and /v1/stream connections are active until
		// their channel closes — then let in-flight reads finish.
		cfg.logf("draining %d active connections", tracker.Active())
		srv.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			_ = httpSrv.Close() // force-drop stragglers
		}
	}()
	cfg.logf("serving on http://%s (block interval %s, %d noise swaps/block)",
		ln.Addr(), cfg.blockInterval, cfg.noise)
	if cfg.ready != nil {
		cfg.ready <- ln.Addr().String()
	}
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// oplogTail is how many recovered entries restart priming reads: enough
// blocks for a meaningful per-pool activity frequency at block cadence,
// small enough to keep startup instant.
const oplogTail = 64

// primeScannerFromOplog seeds the scanner's per-pool dirtiness priors
// from the durable log's recovered tail: how often each pool appeared
// dirty across the tail entries. Priming is strictly best-effort — an
// unreadable or empty log starts the scanner cold, never fails serve.
func primeScannerFromOplog(dir string, sc *arbloop.Scanner, logf func(format string, a ...any)) {
	entries, st, err := oplog.Tail(dir, oplogTail)
	if err != nil {
		logf("oplog: priming read failed: %v (starting cold)", err)
		return
	}
	if len(entries) == 0 {
		return
	}
	counts := make(map[string]int)
	for _, e := range entries {
		for _, id := range e.DirtyPools {
			counts[id]++
		}
	}
	if len(counts) > 0 {
		priors := make(map[string]float64, len(counts))
		for id, c := range counts {
			priors[id] = float64(c) / float64(len(entries))
		}
		sc.PrimeDirtiness(priors)
	}
	note := ""
	if st.Truncated {
		note = fmt.Sprintf(", torn tail truncated at %s+%d", st.TruncatedSegment, st.TruncatedOffset)
	}
	logf("oplog: primed from %d recovered entries across %d segments%s: %d pool priors",
		st.Entries, st.Segments, note, len(counts))
}

// bestProfit returns the top-ranked profit of a report (0 when empty).
func bestProfit(rep arbloop.ScanReport) float64 {
	if len(rep.Results) == 0 {
		return 0
	}
	return rep.Results[0].Result.Monetized
}

// noiseSwaps applies n random retail swaps — each a fraction of a random
// pool's input reserve — simulating the background flow that creates and
// destroys arbitrage opportunities between blocks.
func noiseSwaps(state *chain.State, rng *rand.Rand, ids []string, n int) {
	for i := 0; i < n && len(ids) > 0; i++ {
		id := ids[rng.Intn(len(ids))]
		t0, t1, err := state.PoolTokens(id)
		if err != nil {
			continue
		}
		r0, r1, err := state.Reserves(id)
		if err != nil {
			continue
		}
		tokenIn, reserveIn := t0, r0
		if rng.Intn(2) == 1 {
			tokenIn, reserveIn = t1, r1
		}
		// 0.01%–0.5% of the input reserve: enough to move prices, small
		// enough to never drain a pool.
		bps := int64(1 + rng.Intn(50))
		amount := new(big.Int).Mul(reserveIn, big.NewInt(bps))
		amount.Div(amount, big.NewInt(10_000))
		if amount.Sign() <= 0 {
			continue
		}
		_, _ = state.Swap(id, tokenIn, amount)
	}
}
