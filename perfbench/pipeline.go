package main

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"arbloop"
	"arbloop/internal/chain"
	"arbloop/internal/distrib"
	"arbloop/internal/oplog"
	"arbloop/internal/server"
	"arbloop/internal/source"
	"arbloop/internal/strategy"
	"arbloop/internal/telemetry"
)

// The serve flag defaults the pipeline mirrors (cmd/arbloop/serve.go).
const (
	serveScale = 1_000_000 // base units per whole token on the simulator
	serveTopK  = 20        // -top
	// genesisUnix fixes the simulator clock (serve starts it at the wall
	// clock; no pool depends on it).
	genesisUnix = 1_700_000_000
	// maxWarmLoops is how many ranked plans one oplog entry records.
	maxWarmLoops = 32
)

// warmup is how long blocks run before the timed window opens, so the
// first delta scans after the capture, the heap and the connection
// buffers settle first.
const warmup = 3 * time.Second

// drainTimeout bounds how long the run waits, after the last block, for
// the reports that cover the window's blocks; a block still uncovered
// then is a failed operation.
const drainTimeout = 2 * time.Second

// pipeline is `arbloop serve` rebuilt in-process from the same public
// pieces and flag defaults (serve lives in package main and cannot be
// imported): the §VI market mirrored onto the chain simulator, a Watcher
// refreshed on every block hook, Scanner.Watch, and Encode → Publish →
// oplog Append behind a real http.Server on loopback. With a tracer the
// pool source, price source and oplog segment files are wrapped and the
// serving loop times its calls; without one the stack is exactly
// serve's.
type pipeline struct {
	wl   workload
	seed int64
	clk  clock
	tr   *tracer

	state     *chain.State
	poolIDs   []string
	pricesUSD map[string]float64
	scanner   *arbloop.Scanner
	watcher   *arbloop.Watcher
	srv       *server.Server
	httpSrv   *http.Server
	addr      string
	olog      *oplog.Log
	oplogDir  string
	client    *sseClient

	notify chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// setup is the time from the start of construction to the SSE
	// client's first report event (ns).
	setup int64
	// sealAt is the seal instant of the block being sealed, written by
	// the OnBlock hook on the generator's goroutine.
	sealAt int64

	// sampleEvery selects the verified versions (see keep); samples is
	// appended by the feed loop only.
	sampleEvery uint64
	samples     []poolSample
	// feedChecks and scanChecks are owned by the feed and serving loops.
	feedChecks, scanChecks checkLog
	httpErr                error
}

// poolSample is the pool set one feed version carried, kept for the
// post-run re-scan.
type poolSample struct {
	version uint64
	height  int64
	pools   []*arbloop.Pool
}

// maxSamples caps the verified versions per pipeline.
const maxSamples = 128

// keep reports whether version v is in the seeded verification sample;
// the priming capture (version 1) always is.
func (p *pipeline) keep(v uint64) bool {
	return v == 1 || splitmix(uint64(p.seed)^v*0x9e3779b97f4a7c15)%p.sampleEvery == 0
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newPipeline builds and starts the stack and returns once the SSE
// client has read the priming report; blocks is the run's block count
// (warm-up included), used to size buffers up front.
func newPipeline(wl workload, seed int64, clk clock, tr *tracer, blocks int) (*pipeline, error) {
	start := clk.now()
	ctx, cancel := context.WithCancel(context.Background())
	p := &pipeline{
		wl: wl, seed: seed, clk: clk, tr: tr,
		notify:      make(chan struct{}, 1),
		ctx:         ctx,
		cancel:      cancel,
		sampleEvery: uint64(max(1, blocks/48)),
	}
	if err := p.build(blocks); err != nil {
		p.close()
		return nil, err
	}
	select {
	case <-p.client.first:
	case <-time.After(30 * time.Second):
		p.close()
		return nil, errors.New("no report reached the stream client within 30s")
	}
	p.setup = clk.now() - start
	return p, nil
}

func (p *pipeline) build(blocks int) error {
	snap, err := arbloop.GenerateMarket(arbloop.DefaultGeneratorConfig())
	if err != nil {
		return err
	}
	filtered := snap.FilterPools(30_000, 100)
	p.state = chain.NewState(genesisUnix)
	if err := source.MirrorToChain(p.state, filtered, serveScale); err != nil {
		return err
	}
	p.poolIDs = p.state.PoolIDs()
	p.pricesUSD = filtered.PricesUSD

	var src arbloop.PoolSource = arbloop.FromChain(p.state, serveScale)
	breaker := arbloop.NewPriceBreaker(arbloop.NewStaticOracle(filtered.PricesUSD))
	var prices arbloop.PriceSource = breaker
	if p.tr != nil {
		src = tracedPools{src: src, t: p.tr}
		prices = tracedPrices{src: breaker, t: p.tr}
	}
	p.scanner, err = arbloop.NewScanner(src, prices,
		arbloop.WithLoopLengths(p.wl.loopLen, p.wl.loopLen),
		arbloop.WithStrategyName(p.wl.strategy),
		arbloop.WithParallelism(0),
		arbloop.WithMinProfitUSD(0),
		arbloop.WithMaxCycles(0),
		arbloop.WithTopK(serveTopK),
		arbloop.WithDeltaScans(true),
		arbloop.WithShards(0),
		arbloop.WithStageTimeout(0),
	)
	if err != nil {
		return err
	}
	p.watcher = arbloop.NewWatcher(src,
		arbloop.WithHeightProbe(p.state.Height),
		arbloop.WithWatcherErrorHandler(func(err error) { p.feedChecks.failf("feed refresh: %v", err) }),
		arbloop.WithWatcherFailureMode(arbloop.FailDegrade),
		arbloop.WithWatcherRefreshTimeout(0))
	p.state.OnBlock(func(int64) {
		p.sealAt = p.clk.now()
		select {
		case p.notify <- struct{}{}:
		default:
		}
	})

	tracker := distrib.NewTracker()
	p.srv = server.New(
		server.WithConnTracker(tracker),
		server.WithWriteTimeout(server.DefaultWriteTimeout),
		server.WithStaleAfter(server.DefaultStaleAfter),
		server.WithHeartbeat(server.DefaultHeartbeat),
	)
	p.srv.SetDeltaStatsProbe(p.scanner.DeltaStats)
	p.srv.SetFeedStatsProbe(p.watcher.Stats)
	p.srv.SetBreakerStatsProbe(func() map[string]arbloop.BreakerState {
		return map[string]arbloop.BreakerState{"prices": breaker.State()}
	})
	breaker.RegisterMetrics(p.srv.Telemetry())
	p.scanner.Metrics().Register(p.srv.Telemetry())
	p.watcher.RegisterMetrics(p.srv.Telemetry())
	strategy.Telemetry().Register(p.srv.Telemetry())

	if p.wl.oplog {
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(buildDir, "oplog-")
		if err != nil {
			return err
		}
		p.oplogDir = dir
		sync, err := oplog.ParseSyncPolicy("")
		if err != nil {
			return err
		}
		opts := oplog.Options{Sync: sync}
		if p.tr != nil {
			opts.OpenFile = p.tr.openFile
		}
		if p.olog, err = oplog.Open(dir, opts); err != nil {
			return fmt.Errorf("open oplog: %w", err)
		}
		p.srv.SetOplogStatsProbe(p.olog.Stats)
		p.olog.RegisterMetrics(p.srv.Telemetry())
	}

	reports := p.scanner.Watch(p.ctx, p.watcher)
	p.wg.Add(2)
	go p.feedLoop()
	go p.serveLoop(reports)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ln = distrib.Limit(ln, 0, tracker)
	p.addr = ln.Addr().String()
	p.httpSrv = &http.Server{Handler: p.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		if err := p.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			p.httpErr = err
		}
	}()

	if p.client, err = dialSSE(p.addr, p.clk, blocks+64, p.keep); err != nil {
		return err
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.client.run()
	}()
	p.notify <- struct{}{} // prime: the first report before any block
	return nil
}

// feedLoop is Watcher.Run's notify loop without its retry path (which
// never fires without injected faults): one Refresh per block notify,
// timed from outside.
func (p *pipeline) feedLoop() {
	defer p.wg.Done()
	defer p.watcher.Close()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-p.notify:
		}
		traced := p.tr.active()
		var start int64
		if traced {
			start = p.clk.now()
		}
		u, err := p.watcher.Refresh(p.ctx)
		if err != nil {
			if p.ctx.Err() == nil {
				p.feedChecks.failf("refresh: %v", err)
			}
			continue
		}
		if traced {
			p.tr.add(kindRefresh, u.Version, u.Height, start, p.clk.now())
		}
		if len(p.samples) < maxSamples && p.keep(u.Version) {
			p.samples = append(p.samples, poolSample{version: u.Version, height: u.Height, pools: u.Pools})
		}
	}
}

// serveLoop is serve's scan loop: encode each report once, publish it
// to the frame store and SSE subscribers, and append it to the oplog.
func (p *pipeline) serveLoop(reports <-chan arbloop.VersionedReport) {
	defer p.wg.Done()
	tr := p.tr
	var recv, encStart, encEnd, pubStart, pubEnd int64
	for vr := range reports {
		traced := tr.active()
		if traced {
			recv = p.clk.now()
		}
		if vr.Err != nil {
			p.scanChecks.failf("scan v%d: %v", vr.Version, vr.Err)
			continue
		}
		if traced {
			encStart = p.clk.now()
		}
		rep := distrib.Encode(vr.Report, vr.Version, vr.Height)
		if traced {
			encEnd = p.clk.now()
			pubStart = p.clk.now()
		}
		if err := p.srv.Publish(rep, vr.Elapsed); err != nil {
			p.scanChecks.failf("publish v%d: %v", vr.Version, err)
			continue
		}
		if traced {
			pubEnd = p.clk.now()
		}
		if p.olog != nil {
			var appStart int64
			if traced {
				appStart = p.clk.now()
			}
			_ = p.olog.Append(oplog.Entry{
				Version:    vr.Version,
				Height:     vr.Height,
				UnixNano:   time.Now().UnixNano(),
				DirtyPools: vr.ChangedPools,
				Warm:       warmLoops(vr.Report),
				Report:     rep,
			})
			if traced {
				tr.add(kindAppend, vr.Version, vr.Height, appStart, p.clk.now())
			}
		}
		if traced {
			v, h := vr.Version, vr.Height
			tr.add(kindScanRun, v, h, recv-int64(vr.Elapsed), recv)
			tr.add(kindEncode, v, h, encStart, encEnd)
			tr.add(kindPublish, v, h, pubStart, pubEnd)
		}
		if tr != nil {
			f := p.srv.Store().Frame()
			tr.reports = append(tr.reports, reportRecord{
				height:      vr.Height,
				reoptimized: vr.Report.LoopsReoptimized, reused: vr.Report.LoopsReused,
				shard:      vr.Report.ShardsScanned,
				frameBytes: len(f.Raw), gzipBytes: len(f.Gzip),
			})
		}
	}
}

// warmLoops is serve's oplog warm-start record of a report: the ranked
// plans' token cycles and per-hop inputs, at most maxWarmLoops.
func warmLoops(rep arbloop.ScanReport) []oplog.WarmLoop {
	n := min(len(rep.Results), maxWarmLoops)
	if n == 0 {
		return nil
	}
	out := make([]oplog.WarmLoop, 0, n)
	for _, r := range rep.Results[:n] {
		loop := r.Result.Loop
		if loop == nil || len(r.Result.Plan.Inputs) != loop.Len() {
			continue
		}
		inputs := make([]float64, len(r.Result.Plan.Inputs))
		copy(inputs, r.Result.Plan.Inputs)
		out = append(out, oplog.WarmLoop{Tokens: loop.Tokens(), Inputs: inputs})
	}
	return out
}

// noiseSwaps is serve's retail flow: n swaps, each 0.01–0.5% of a random
// pool's input reserve.
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
		bps := int64(1 + rng.Intn(50))
		amount := new(big.Int).Mul(reserveIn, big.NewInt(bps))
		amount.Div(amount, big.NewInt(10_000))
		if amount.Sign() <= 0 {
			continue
		}
		_, _ = state.Swap(id, tokenIn, amount)
	}
}

// snapshot is the counter state at one window edge.
type snapshot struct {
	at         int64
	cpu        int64 // process user+sys CPU, ns
	totalAlloc uint64
	numGC      uint32
	delta      arbloop.DeltaStats
	solves     uint64
	fallbacks  uint64
	warmHits   uint64
	warmMisses uint64
	newton     uint64
	oplog      oplog.Stats
	stages     [4]telemetry.HistogramSnapshot
	oplogBytes int64
}

func (p *pipeline) snapshot() snapshot {
	s := snapshot{at: p.clk.now(), cpu: processCPU(), delta: p.scanner.DeltaStats()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.totalAlloc, s.numGC = ms.TotalAlloc, ms.NumGC
	t := strategy.Telemetry()
	s.solves, s.fallbacks = t.Solves.Load(), t.Fallbacks.Load()
	s.warmHits, s.warmMisses, s.newton = t.WarmHits.Load(), t.WarmMisses.Load(), t.NewtonIters.Load()
	if p.olog != nil {
		s.oplog = p.olog.Stats()
	}
	if m := p.scanner.Metrics(); m != nil {
		s.stages = [4]telemetry.HistogramSnapshot{
			m.StageOrient.Snapshot(), m.StagePrices.Snapshot(), m.StageOptimize.Snapshot(), m.StageCommit.Snapshot(),
		}
	}
	if p.tr != nil {
		s.oplogBytes = p.tr.oplogBytes.Load()
	}
	return s
}

// processCPU is the process's user+sys CPU time so far, in ns.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// measurement is one timed window: blocks first..last (heights) were due
// at t0 + h·interval.
type measurement struct {
	first, last   int64
	t0, interval  int64
	before, after snapshot
	// cpuMarks is processCPU at the start of each block segment of the
	// window (see segments) and after the drain.
	cpuMarks   []int64
	reads      []readSample
	readChecks checkLog
	peakRSSMB  float64
}

func (m *measurement) due(h int64) int64 { return m.t0 + h*m.interval }

// tracedSegment reports whether window block h lies in a traced segment
// of a traced run: the window's block segments alternate traced and
// untraced, starting traced.
func (m *measurement) tracedSegment(h int64) bool {
	segs := segments(int(m.last - m.first + 1))
	i := int(h - m.first)
	for k, s := range segs {
		if i >= s[0] && i < s[1] {
			return k%2 == 0
		}
	}
	return false
}

// blocksFor is the block count of a run of the given length, warm-up
// included.
func blocksFor(wl workload, seconds int) int {
	return int((warmup + time.Duration(seconds)*time.Second) / wl.interval)
}

// measure drives one window: warm-up blocks, then seconds' worth of
// timed blocks on an open-loop schedule, with the workload's reader
// running alongside; it returns after every block's covering report has
// reached the client (or drainTimeout passed).
func (p *pipeline) measure(seconds int) (*measurement, error) {
	interval := int64(p.wl.interval)
	warm := int64(warmup) / interval
	n := int64(seconds) * int64(time.Second) / interval
	m := &measurement{first: warm + 1, last: warm + n, interval: interval}
	m.t0 = p.clk.now() + int64(2*time.Millisecond)

	readsCap := int(int64(p.wl.readRate)*(m.last*interval+int64(drainTimeout))/int64(time.Second)) + 64
	rd, err := newReader(p.addr, p.clk, p.wl.readRate, int64(splitmix(uint64(p.seed))), readsCap)
	if err != nil {
		return nil, err
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		rd.run(m.t0, m.due(m.last))
	}()

	rng := rand.New(rand.NewSource(p.seed))
	segs := segments(int(n))
	m.cpuMarks = make([]int64, 0, len(segs)+1)
	if p.tr != nil {
		p.tr.on.Store(true) // the warm-up is traced
	}
	for h := int64(1); h <= m.last; h++ {
		if h == m.first {
			m.before = p.snapshot()
		}
		if k := len(m.cpuMarks); k < len(segs) && h == m.first+int64(segs[k][0]) {
			m.cpuMarks = append(m.cpuMarks, processCPU())
			if p.tr != nil {
				p.tr.on.Store(m.tracedSegment(h))
			}
		}
		due := m.due(h)
		p.clk.sleepUntil(due)
		wake := p.clk.now()
		noiseSwaps(p.state, rng, p.poolIDs, p.wl.swaps)
		p.state.Block(nil)
		if p.tr.active() {
			p.tr.add(kindGenTimer, 0, h, due, wake)
			p.tr.add(kindGenBlock, 0, h, due, p.sealAt)
		}
	}
	deadline := p.clk.now() + int64(drainTimeout)
	for p.client.maxHeight.Load() < m.last && p.clk.now() < deadline {
		time.Sleep(time.Millisecond)
	}
	m.after = p.snapshot()
	m.cpuMarks = append(m.cpuMarks, m.after.cpu)
	m.peakRSSMB, _ = peakRSSMB()
	rd.stop.Store(true)
	<-readerDone
	rd.conn.Close()
	m.reads, m.readChecks = rd.samples, rd.checks
	return m, nil
}

// close stops every goroutine the pipeline started and waits for them,
// then closes the oplog and removes its directory.
func (p *pipeline) close() error {
	p.cancel()
	if p.srv != nil {
		p.srv.Close() // end SSE streams so Shutdown need not wait them out
	}
	if p.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := p.httpSrv.Shutdown(ctx); err != nil {
			_ = p.httpSrv.Close()
		}
		cancel()
	}
	if p.client != nil {
		p.client.conn.Close()
	}
	p.wg.Wait()
	var err error
	if p.olog != nil {
		err = p.olog.Close()
	}
	if p.oplogDir != "" {
		if rerr := os.RemoveAll(p.oplogDir); err == nil {
			err = rerr
		}
	}
	return err
}
