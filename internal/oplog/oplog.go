package oplog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arbloop/internal/distrib"
	"arbloop/internal/telemetry"
)

// Entry is one recorded block: the published wire report plus the
// scanner-side context replay can't reconstruct from the wire form —
// which pools traded (dirtiness priming). Entries that still carry the
// warm field, as serve wrote them before, decode unchanged.
type Entry struct {
	// Version and Height are the feed coordinates of the block.
	Version uint64 `json:"version"`
	Height  int64  `json:"height"`
	// UnixNano is the wall clock at append time.
	UnixNano int64 `json:"unix_nano"`
	// DirtyPools lists the pools whose reserves moved into this block
	// (nil on full captures, where the dirty set is unknown).
	DirtyPools []string `json:"dirty_pools,omitempty"`
	// Warm carries ranked loops' token cycles and per-hop inputs.
	//
	// Deprecated: nothing reads it, and serve no longer writes it. It
	// remains because the perfbench module still fills it.
	Warm []WarmLoop `json:"warm,omitempty"`
	// Report is the block's published wire report, verbatim — replay
	// re-serves it through the distribution tier unchanged.
	Report distrib.ReportJSON `json:"report"`
}

// WarmLoop is one loop's recorded flow plan: Inputs[i] is the amount of
// Tokens[i] put into hop i.
//
// Deprecated: the element type of Entry.Warm, kept with it.
type WarmLoop struct {
	Tokens []string  `json:"tokens"`
	Inputs []float64 `json:"inputs"`
}

// SyncMode selects when the background syncer calls fsync.
type SyncMode int

const (
	// SyncInterval fsyncs on a timer (Interval): bounded data loss,
	// near-zero per-record cost — the serving default.
	SyncInterval SyncMode = iota
	// SyncEveryN fsyncs after every N records.
	SyncEveryN
	// SyncAlways fsyncs after every record: maximum durability, one
	// fsync per block.
	SyncAlways
)

// SyncPolicy is the durability policy of a Log's background syncer.
type SyncPolicy struct {
	Mode SyncMode
	// Interval applies to SyncInterval (default 1s).
	Interval time.Duration
	// N applies to SyncEveryN (default 8).
	N int
}

// DefaultSyncInterval is the SyncInterval default: at block cadence of
// seconds, at most a block or two of unsynced tail.
const DefaultSyncInterval = time.Second

func (p SyncPolicy) withDefaults() SyncPolicy {
	if p.Mode == SyncInterval && p.Interval <= 0 {
		p.Interval = DefaultSyncInterval
	}
	if p.Mode == SyncEveryN && p.N <= 0 {
		p.N = 8
	}
	return p
}

// String renders the policy in ParseSyncPolicy's syntax.
func (p SyncPolicy) String() string {
	switch p.Mode {
	case SyncAlways:
		return "always"
	case SyncEveryN:
		return "every=" + strconv.Itoa(p.N)
	default:
		return "interval=" + p.Interval.String()
	}
}

// ParseSyncPolicy parses the -oplog-fsync flag syntax:
//
//	"interval=1s"  fsync on a timer
//	"every=8"      fsync after every 8 records
//	"always"       fsync after every record
//
// The empty string selects the default (interval=1s).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return SyncPolicy{Mode: SyncInterval}.withDefaults(), nil
	case s == "always":
		return SyncPolicy{Mode: SyncAlways}, nil
	case strings.HasPrefix(s, "every="):
		n, err := strconv.Atoi(s[len("every="):])
		if err != nil || n <= 0 {
			return SyncPolicy{}, fmt.Errorf("oplog: fsync policy %q: every=N needs a positive integer", s)
		}
		return SyncPolicy{Mode: SyncEveryN, N: n}, nil
	case strings.HasPrefix(s, "interval="):
		d, err := time.ParseDuration(s[len("interval="):])
		if err != nil || d <= 0 {
			return SyncPolicy{}, fmt.Errorf("oplog: fsync policy %q: interval=DUR needs a positive duration", s)
		}
		return SyncPolicy{Mode: SyncInterval, Interval: d}, nil
	default:
		return SyncPolicy{}, fmt.Errorf("oplog: fsync policy %q: want interval=DUR, every=N, or always", s)
	}
}

// File is the writable-file surface the log writes segments through —
// satisfied by *os.File and by the fault injector's wrapper
// (faults.FileInjector.Wrap), which is how tests and chaos drills make
// the disk fail on schedule.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// Options tunes a Log.
type Options struct {
	// SegmentBytes rotates to a new segment once the current one
	// reaches this size (default 8 MiB).
	SegmentBytes int64
	// QueueDepth bounds the append queue between the serving loop and
	// the syncer (default 64). A full queue drops the newest entry —
	// Append never blocks the block loop.
	QueueDepth int
	// Sync is the fsync policy (default interval=1s).
	Sync SyncPolicy
	// OpenFile, when non-nil, opens segment files — the injection point
	// for fault-wrapped files. The default opens with
	// O_WRONLY|O_CREATE|O_EXCL.
	OpenFile func(path string) (File, error)
}

// DefaultSegmentBytes is the rotation threshold default.
const DefaultSegmentBytes = 8 << 20

// DefaultQueueDepth is the append-queue default — tens of blocks of
// headroom over a syncer hiccup at seconds cadence.
const DefaultQueueDepth = 64

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	o.Sync = o.Sync.withDefaults()
	if o.OpenFile == nil {
		o.OpenFile = func(path string) (File, error) {
			return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		}
	}
	return o
}

// Stats is a point-in-time snapshot of a Log, shaped for the
// /v1/healthz oplog section.
type Stats struct {
	// Appended counts entries accepted into the queue; Written counts
	// entries durably framed into a segment; Dropped counts entries lost
	// to a full queue or a degraded log.
	Appended uint64 `json:"appended"`
	Written  uint64 `json:"written"`
	Dropped  uint64 `json:"dropped"`
	// Syncs counts fsync calls the policy issued.
	Syncs uint64 `json:"syncs"`
	// Segments is the index of the current segment (segments written so
	// far, including the active one); SegmentBytes its current size.
	Segments     int   `json:"segments"`
	SegmentBytes int64 `json:"segment_bytes"`
	// Degraded reports the log stopped persisting after a write, sync,
	// or rotation failure (LastError). The serving loop keeps running —
	// healthz surfaces the condition; appends are dropped and counted.
	Degraded  bool   `json:"degraded"`
	LastError string `json:"last_error,omitempty"`
}

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("oplog: closed")

// Log is the append-side handle: a bounded queue in front of one
// background syncer goroutine that owns the active segment. Append is
// non-blocking and allocation-light (one queue send); serialization,
// writes, rotation, and fsync all happen on the syncer. Safe for
// concurrent use.
type Log struct {
	dir string
	opt Options

	queue   chan Entry
	closing chan struct{}
	done    chan struct{}

	appended telemetry.Counter
	written  telemetry.Counter
	dropped  telemetry.Counter
	syncs    telemetry.Counter

	degraded atomic.Bool
	closed   atomic.Bool

	mu      sync.Mutex
	lastErr error

	// Syncer-owned state; no locking — only the run goroutine touches it.
	cur      File
	curName  string
	curBytes int64
	segIdx   int
	segments []string
	buf      []byte
	unsynced int
}

// Open creates (or appends after) the log in dir and starts the
// background syncer. Existing segments are never reopened for writing —
// a fresh segment starts after the highest existing index, so a torn
// tail from a previous crash stays exactly as the crash left it (replay
// truncates it; new history lands in a clean segment).
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("oplog: mkdir: %w", err)
	}
	existing, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	next := 0
	if len(existing) > 0 {
		last, _ := segmentIndex(existing[len(existing)-1])
		next = last + 1
	}
	l := &Log{
		dir:      dir,
		opt:      opt,
		queue:    make(chan Entry, opt.QueueDepth),
		closing:  make(chan struct{}),
		done:     make(chan struct{}),
		segments: existing,
		segIdx:   next,
	}
	if err := l.openSegment(next); err != nil {
		return nil, err
	}
	if err := writeManifest(dir, l.segments); err != nil {
		_ = l.cur.Close()
		return nil, err
	}
	go l.run()
	return l, nil
}

// Append queues one entry for the background syncer. It never blocks:
// a full queue or a degraded log drops the entry (counted in
// Stats.Dropped). The only error is ErrClosed.
func (l *Log) Append(e Entry) error {
	if l.closed.Load() {
		return ErrClosed
	}
	if l.degraded.Load() {
		l.dropped.Inc()
		return nil
	}
	select {
	case l.queue <- e:
		l.appended.Inc()
	default:
		l.dropped.Inc()
	}
	return nil
}

// Close stops the syncer after draining queued entries, issues a final
// fsync, and closes the active segment. Idempotent; returns the sticky
// error of a degraded log, if any.
func (l *Log) Close() error {
	if l.closed.CompareAndSwap(false, true) {
		close(l.closing)
	}
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastErr
}

// Stats snapshots the log's counters and degraded state.
func (l *Log) Stats() Stats {
	s := Stats{
		Appended: l.appended.Load(),
		Written:  l.written.Load(),
		Dropped:  l.dropped.Load(),
		Syncs:    l.syncs.Load(),
		Degraded: l.degraded.Load(),
	}
	l.mu.Lock()
	if l.lastErr != nil {
		s.LastError = l.lastErr.Error()
	}
	s.Segments = l.segIdx + 1
	s.SegmentBytes = atomic.LoadInt64(&l.curBytes)
	l.mu.Unlock()
	return s
}

// RegisterMetrics exposes the log's counters on reg under the
// arbloop_oplog_* family.
func (l *Log) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("arbloop_oplog_appended_total", "", "entries accepted into the oplog queue", &l.appended)
	reg.Counter("arbloop_oplog_written_total", "", "entries framed into oplog segments", &l.written)
	reg.Counter("arbloop_oplog_dropped_total", "", "entries dropped (full queue or degraded log)", &l.dropped)
	reg.Counter("arbloop_oplog_syncs_total", "", "fsync calls issued by the oplog sync policy", &l.syncs)
	reg.Gauge("arbloop_oplog_degraded", "", "1 while the oplog stopped persisting after a disk fault", func() float64 {
		if l.degraded.Load() {
			return 1
		}
		return 0
	})
}

// openSegment creates segment idx and writes its magic header. Syncer
// (or Open) only.
func (l *Log) openSegment(idx int) error {
	name := segmentName(idx)
	f, err := l.opt.OpenFile(filepath.Join(l.dir, name))
	if err != nil {
		return fmt.Errorf("oplog: open segment %s: %w", name, err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		_ = f.Close()
		return fmt.Errorf("oplog: segment header %s: %w", name, err)
	}
	l.cur = f
	l.curName = name
	atomic.StoreInt64(&l.curBytes, int64(segHeaderSize))
	l.mu.Lock()
	l.segIdx = idx
	l.mu.Unlock()
	l.segments = append(l.segments, name)
	l.unsynced = 0
	return nil
}

// run is the background syncer: drain the queue, frame and write each
// entry, fsync per policy, rotate segments by size. It exits when Close
// signals, after draining what is already queued.
func (l *Log) run() {
	defer close(l.done)
	var tickC <-chan time.Time
	if l.opt.Sync.Mode == SyncInterval {
		t := time.NewTicker(l.opt.Sync.Interval)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case e := <-l.queue:
			l.write(e)
		case <-tickC:
			if l.unsynced > 0 {
				l.syncNow()
			}
		case <-l.closing:
			// Drain whatever Append managed to queue before Close.
			for {
				select {
				case e := <-l.queue:
					l.write(e)
				default:
					if l.unsynced > 0 {
						l.syncNow()
					}
					if l.cur != nil {
						if err := l.cur.Close(); err != nil {
							l.fail(fmt.Errorf("oplog: close segment %s: %w", l.curName, err))
						}
						l.cur = nil
					}
					return
				}
			}
		}
	}
}

// write frames one entry into the active segment and applies the
// per-record half of the sync policy. Syncer only.
func (l *Log) write(e Entry) {
	if l.degraded.Load() {
		l.dropped.Inc()
		return
	}
	payload, err := json.Marshal(e)
	if err != nil {
		// A value json can't encode is a programming error in the entry,
		// not a disk fault: drop the entry, don't poison the log.
		l.dropped.Inc()
		return
	}
	if len(payload) > MaxRecordSize {
		l.dropped.Inc()
		return
	}
	l.buf = appendRecord(l.buf[:0], payload)
	n, err := l.cur.Write(l.buf)
	atomic.AddInt64(&l.curBytes, int64(n))
	if err != nil {
		// A short or failed write leaves a torn record at the tail —
		// precisely what replay truncates. Stop persisting; serving
		// continues.
		l.fail(fmt.Errorf("oplog: write segment %s: %w", l.curName, err))
		return
	}
	l.written.Inc()
	l.unsynced++
	switch l.opt.Sync.Mode {
	case SyncAlways:
		l.syncNow()
	case SyncEveryN:
		if l.unsynced >= l.opt.Sync.N {
			l.syncNow()
		}
	}
	if !l.degraded.Load() && atomic.LoadInt64(&l.curBytes) >= l.opt.SegmentBytes {
		l.rotate()
	}
}

// syncNow fsyncs the active segment. Syncer only.
func (l *Log) syncNow() {
	if l.cur == nil || l.degraded.Load() {
		return
	}
	if err := l.cur.Sync(); err != nil {
		l.fail(fmt.Errorf("oplog: sync segment %s: %w", l.curName, err))
		return
	}
	l.syncs.Inc()
	l.unsynced = 0
}

// rotate seals the active segment (fsync + close), opens the next one,
// and commits the new segment list to the manifest. Syncer only.
func (l *Log) rotate() {
	if err := l.cur.Sync(); err != nil {
		l.fail(fmt.Errorf("oplog: sync segment %s: %w", l.curName, err))
		return
	}
	l.syncs.Inc()
	l.unsynced = 0
	if err := l.cur.Close(); err != nil {
		l.fail(fmt.Errorf("oplog: close segment %s: %w", l.curName, err))
		return
	}
	l.cur = nil
	if err := l.openSegment(l.segIdx + 1); err != nil {
		l.fail(err)
		return
	}
	if err := writeManifest(l.dir, l.segments); err != nil {
		// The segment exists without a manifest entry; the reader's
		// directory-scan union still finds it. Still a disk fault —
		// degrade rather than guessing at the disk's state.
		l.fail(err)
	}
}

// fail flips the log into its degraded state: the sticky error is
// surfaced through Stats (and healthz), further entries are dropped and
// counted, and the serving loop is never blocked. First error wins.
func (l *Log) fail(err error) {
	l.mu.Lock()
	if l.lastErr == nil {
		l.lastErr = err
	}
	l.mu.Unlock()
	l.degraded.Store(true)
}
