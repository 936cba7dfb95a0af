package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"unsafe"

	"arbloop"
	"arbloop/internal/oplog"
)

// spanKind is one span of the layer model. Every span is recorded by the
// benchmark's own code around a call into a layer's public function, or
// derived after the run from the harness's instants (due, seal, client
// read) and those calls.
type spanKind uint8

const (
	kindBlock      spanKind = iota // block_to_byte: due → client read of the covering report (derived root)
	kindGenBlock                   // gen.block: due → seal, the generator's part
	kindGenTimer                   // gen.timer: due → the generator's wake-up (timer lateness)
	kindFeedWake                   // feed.wake: seal → Watcher.Refresh call (derived)
	kindRefresh                    // feed.refresh: Watcher.Refresh
	kindPools                      // source.pools: ChainSource.Pools, inside Refresh
	kindScanWait                   // scan.wait: Refresh return → scan start (derived)
	kindScanRun                    // scan.run: VersionedReport.Elapsed, ending when the report reaches the serving loop
	kindPrices                     // source.prices: PriceBreaker.PricesFallback, inside the scan
	kindEncode                     // distrib.encode: distrib.Encode
	kindPublish                    // server.publish: Server.Publish (frame build + swap + fan-out)
	kindTransit                    // server.sse_transit: Publish return → client read (derived)
	kindAppend                     // oplog.append: Log.Append
	kindClientRead                 // client.read: the instant the SSE client holds the whole event
	kindOplogWrite                 // oplog.write: segment File.Write on the background syncer
	kindOplogSync                  // oplog.sync: segment File.Sync on the background syncer
	numKinds
)

// noParent marks a root span.
const noParent = numKinds

var kindInfo = [numKinds]struct {
	name   string
	parent spanKind
}{
	kindBlock:      {"block_to_byte", noParent},
	kindGenBlock:   {"gen.block", kindBlock},
	kindGenTimer:   {"gen.timer", kindGenBlock},
	kindFeedWake:   {"feed.wake", kindBlock},
	kindRefresh:    {"feed.refresh", kindBlock},
	kindPools:      {"source.pools", kindRefresh},
	kindScanWait:   {"scan.wait", kindBlock},
	kindScanRun:    {"scan.run", kindBlock},
	kindPrices:     {"source.prices", kindScanRun},
	kindEncode:     {"distrib.encode", kindBlock},
	kindPublish:    {"server.publish", kindBlock},
	kindTransit:    {"server.sse_transit", kindBlock},
	kindAppend:     {"oplog.append", kindBlock},
	kindClientRead: {"client.read", kindBlock},
	kindOplogWrite: {"oplog.write", noParent},
	kindOplogSync:  {"oplog.sync", noParent},
}

// span is one timed interval (start == end for an instant). trace is the
// feed version of the block's report; spans of one block share it. A
// span's parent is the span of its parent kind in the same trace.
type span struct {
	trace      uint64
	height     int64
	start, end int64
	kind       spanKind
}

func (s span) dur() int64 { return s.end - s.start }

// reportRecord is what the serving loop saw of one published report.
type reportRecord struct {
	height                     int64
	reoptimized, reused, shard int
	frameBytes, gzipBytes      int
}

// tracer keeps a traced run's spans in a buffer preallocated before the
// run; recording claims a slot with one atomic add, so goroutines record
// concurrently without locks. The buffer is read once every recording
// goroutine has stopped. Spans are recorded while on is set: the
// generator switches it per block segment, so one window holds traced
// and untraced blocks side by side (see trace.overhead_pct).
type tracer struct {
	clk        clock
	on         atomic.Bool
	spans      []span
	n          atomic.Int64
	oplogBytes atomic.Int64
	// reports is appended by the serving loop only, traced or not.
	reports []reportRecord
}

// active reports whether spans are being recorded (false without a
// tracer).
func (t *tracer) active() bool { return t != nil && t.on.Load() }

func newTracer(clk clock, blocks int) *tracer {
	return &tracer{
		clk: clk,
		// Per block: up to 14 recorded and derived spans plus oplog syncer
		// spans; doubled for coalescing bursts and the warm-up.
		spans:   offHeap[span](32 * (blocks + 64)),
		reports: offHeap[reportRecord](blocks + 64)[:0],
	}
}

// offHeap returns n zeroed Ts in memory mapped outside the Go heap. The
// harness keeps its large sample buffers there so that they do not
// change the program's GC pacing: a 5 MB span buffer on a heap of about
// 10 MB would halve the GC rate of the run it measures. T must hold no
// pointers. The mapping lives until the process exits; where mapping
// fails the buffer comes from the heap.
func offHeap[T any](n int) []T {
	var zero T
	size := int(unsafe.Sizeof(zero)) * n
	if size == 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]T, n)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

func (t *tracer) add(kind spanKind, trace uint64, height, start, end int64) {
	if i := t.n.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = span{trace: trace, height: height, start: start, end: end, kind: kind}
	}
}

// recorded returns the spans recorded so far and how many did not fit.
func (t *tracer) recorded() ([]span, int64) {
	n := t.n.Load()
	if c := int64(len(t.spans)); n > c {
		return t.spans[:c], n - c
	}
	return t.spans[:n], 0
}

// tracedPools times ChainSource.Pools from outside.
type tracedPools struct {
	src arbloop.PoolSource
	t   *tracer
}

func (p tracedPools) Pools(ctx context.Context) ([]*arbloop.Pool, error) {
	if !p.t.active() {
		return p.src.Pools(ctx)
	}
	start := p.t.clk.now()
	pools, err := p.src.Pools(ctx)
	p.t.add(kindPools, 0, 0, start, p.t.clk.now())
	return pools, err
}

// tracedPrices times the price breaker from outside. It forwards both
// the plain and the fallback entry point, so the scan engine still sees
// a fallback-capable source and takes the same path as untraced.
type tracedPrices struct {
	src arbloop.FallbackPriceSource
	t   *tracer
}

func (p tracedPrices) Prices(ctx context.Context, symbols []string) (map[string]float64, error) {
	m, _, err := p.PricesFallback(ctx, symbols)
	return m, err
}

func (p tracedPrices) PricesFallback(ctx context.Context, symbols []string) (map[string]float64, bool, error) {
	if !p.t.active() {
		return p.src.PricesFallback(ctx, symbols)
	}
	start := p.t.clk.now()
	m, degraded, err := p.src.PricesFallback(ctx, symbols)
	p.t.add(kindPrices, 0, 0, start, p.t.clk.now())
	return m, degraded, err
}

// tracedFile times the oplog's segment writes and fsyncs; openFile is
// installed as oplog.Options.OpenFile and opens segments the way the
// log's default opener does.
type tracedFile struct {
	f *os.File
	t *tracer
}

func (t *tracer) openFile(path string) (oplog.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return tracedFile{f: f, t: t}, nil
}

func (f tracedFile) Write(p []byte) (int, error) {
	if !f.t.active() {
		n, err := f.f.Write(p)
		f.t.oplogBytes.Add(int64(n))
		return n, err
	}
	start := f.t.clk.now()
	n, err := f.f.Write(p)
	f.t.add(kindOplogWrite, 0, 0, start, f.t.clk.now())
	f.t.oplogBytes.Add(int64(n))
	return n, err
}

func (f tracedFile) Sync() error {
	if !f.t.active() {
		return f.f.Sync()
	}
	start := f.t.clk.now()
	err := f.f.Sync()
	f.t.add(kindOplogSync, 0, 0, start, f.t.clk.now())
	return err
}

func (f tracedFile) Close() error { return f.f.Close() }

// writeSpans dumps spans as JSON lines: trace, height, name, parent,
// start and end in ns since the run's base.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type line struct {
		Trace  uint64 `json:"trace"`
		Height int64  `json:"height"`
		Name   string `json:"name"`
		Parent string `json:"parent,omitempty"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	enc := json.NewEncoder(w)
	for _, s := range spans {
		l := line{Trace: s.trace, Height: s.height, Name: kindInfo[s.kind].name, Start: s.start, End: s.end}
		if p := kindInfo[s.kind].parent; p != noParent {
			l.Parent = kindInfo[p].name
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
