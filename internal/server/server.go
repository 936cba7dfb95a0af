// Package server is the HTTP face of the live opportunity service. Every
// response is a thin read over an immutable distrib.Frame: the scan loop
// publishes once per block (one JSON encoding and one SSE framing, in
// distrib.Store.Set), and readers get the frame by atomic pointer swap
// and serve with a header compare plus a buffer write. The first reader
// that asks for gzip compresses the frame, once (Frame.GzipBody). The
// paper's §VII time budget shapes the design — read traffic ("millions
// of users") and scan latency are completely decoupled, and the
// steady-state read path performs zero per-request encoding.
//
// Endpoints:
//
//	GET /v1/report   latest ranked report (JSON; 503 until the first scan)
//	                 ?top=N serves the N most profitable loops as a
//	                 pre-sliced prefix of the cached encoding; strong
//	                 ETag/If-None-Match revalidation (304) and gzip
//	                 negotiation on the full report, compressed once per
//	                 frame on first demand
//	GET /v1/stream   server-sent events; one `report` event per published
//	                 scan, with the feed version as event id so clients
//	                 resume via Last-Event-ID. Idle streams carry periodic
//	                 heartbeat comments (WithHeartbeat). Slow consumers
//	                 are evicted past the write deadline.
//	GET /v1/healthz  serving condition (ok|degraded|stale, see Health):
//	                 version, block height, report age, uptime, last-scan
//	                 latency, delta-engine, feed, breaker, and
//	                 connection-tier gauges, plus a flattened telemetry
//	                 summary
//	GET /v1/metrics  the full telemetry registry in Prometheus text
//	                 exposition format (see Server.Telemetry)
package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arbloop/internal/distrib"
	"arbloop/internal/feed"
	"arbloop/internal/oplog"
	"arbloop/internal/scan"
	"arbloop/internal/source"
	"arbloop/internal/telemetry"
)

// DefaultWriteTimeout bounds one SSE event write: a client that cannot
// drain an event within it is evicted (the block cadence is seconds, so
// a healthy client is never close).
const DefaultWriteTimeout = 10 * time.Second

// DefaultStaleAfter is the report age past which /v1/healthz degrades
// its status to "stale": generous against a seconds-cadence block loop,
// tight enough that a wedged feed is visible within half a minute.
const DefaultStaleAfter = 30 * time.Second

// DefaultHeartbeat is the idle interval between SSE heartbeat comments
// on /v1/stream — frequent enough to beat common 30–60 s proxy idle
// timeouts, cheap enough to be noise-free (a comment line, no event).
const DefaultHeartbeat = 15 * time.Second

// Health is the /v1/healthz body.
type Health struct {
	// Status is the service's serving condition:
	//
	//	"starting"  no report published yet
	//	"ok"        latest report fresh, every dependency healthy
	//	"degraded"  serving, but on best-effort inputs: the latest report
	//	            ran on fallback prices, a dependency breaker is open,
	//	            or the feed is failing refreshes
	//	"stale"     the latest report is older than the stale-after
	//	            threshold (WithStaleAfter) — the block loop stopped
	//	            producing
	//
	// Monitors must treat unknown future values as unhealthy rather than
	// pattern-matching "ok"/"starting" only.
	Status string `json:"status"`
	// LastUpdateAgeSeconds is the age of the most recently published
	// report, or -1 before the first publish. The number behind the
	// ok→stale transition.
	LastUpdateAgeSeconds float64 `json:"last_update_age_seconds"`
	// Degraded reports whether the latest published report ran on
	// fallback (last-known-good) prices.
	Degraded bool `json:"degraded"`
	// Version is the feed version of the latest report.
	Version uint64 `json:"version"`
	// Height is the block height of the latest report.
	Height int64 `json:"height"`
	// Scans counts published reports since start.
	Scans uint64 `json:"scans"`
	// LastScanMillis is the wall-clock latency of the latest scan — the
	// number to watch against the block interval (§VII).
	LastScanMillis float64 `json:"last_scan_ms"`
	// LastScanDuration is LastScanMillis rendered as a Go duration
	// string ("1.8ms") — the human-friendly twin of the float.
	LastScanDuration string `json:"last_scan_duration"`
	// UptimeSeconds is the time since the Server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// TopologyCacheHit reports whether the latest scan skipped cycle
	// enumeration.
	TopologyCacheHit bool `json:"topology_cache_hit"`
	// Strategy is the optimizer the service runs.
	Strategy string `json:"strategy"`
	// Delta, when the embedder registers a probe (SetDeltaStatsProbe),
	// reports the delta engine's lifetime counters — full captures vs
	// delta scans, and how many scans rescanned its state — so the
	// fast-path hit rate is observable in production.
	Delta *DeltaHealth `json:"delta,omitempty"`
	// Connections, when the embedder registers a probe
	// (SetConnStatsProbe, or WithConnTracker which registers one),
	// reports the connection tier: active/peak/accepted connections,
	// slow-consumer evictions, the accept limit, and fd-headroom — the
	// gauge to alarm on before accept() hits EMFILE.
	Connections *distrib.ConnStats `json:"connections,omitempty"`
	// Feed, when the embedder registers a probe (SetFeedStatsProbe),
	// reports the pool feed's refresh/failure counters — a rising
	// failures count is the early sign of a flaky source before an
	// exhausted retry budget takes the service down.
	Feed *feed.WatcherStats `json:"feed,omitempty"`
	// Breakers, when the embedder registers a probe
	// (SetBreakerStatsProbe), reports each dependency circuit breaker's
	// state keyed by dependency name (e.g. "prices") — any non-closed
	// entry flips Status to degraded.
	Breakers map[string]source.BreakerState `json:"breakers,omitempty"`
	// Oplog, when the embedder registers a probe (SetOplogStatsProbe),
	// reports the durable opportunity log's counters and write health.
	// A degraded oplog (disk full, I/O errors) flips Status to degraded
	// while the scan loop keeps serving — durability loss is a
	// best-effort condition, not an outage.
	Oplog *oplog.Stats `json:"oplog,omitempty"`
	// Telemetry is the flattened scalar summary of the server's metric
	// registry (counters, gauges, histogram counts and sums in seconds —
	// labeled per-pool series are left to /v1/metrics).
	Telemetry map[string]float64 `json:"telemetry,omitempty"`
}

// DeltaHealth is the delta-engine section of /v1/healthz.
type DeltaHealth struct {
	// FullScans and DeltaScans count how scans resolved: a healthy
	// steady state is one full capture followed by delta scans.
	FullScans  uint64 `json:"full_scans"`
	DeltaScans uint64 `json:"delta_scans"`
	// Shards is 1 once the engine has captured its one state (0
	// before); ShardsScanned counts the scans that rescanned it: every
	// capture, and every delta scan that re-oriented or re-optimized a
	// loop.
	Shards        int    `json:"shards"`
	ShardsScanned uint64 `json:"shards_scanned"`
}

// Server serves scan reports. Create with New, publish with Publish, and
// mount Handler on any http server. Safe for concurrent use.
//
// # Probes
//
// The server reports on subsystems it doesn't own — the scanner's delta
// engine, the connection tier, the pool feed — through *probes*: the
// embedder registers a stats callback (SetDeltaStatsProbe,
// SetConnStatsProbe, SetFeedStatsProbe), the callback pointer is held
// behind an atomic so registration is safe at any time, and each
// /v1/healthz request polls whichever probes are present. A section is
// simply absent from the JSON until its probe is registered, so adding
// observability never requires a constructor change — the pattern to
// follow for new sections.
//
// Metrics work the other way around: the server owns one
// telemetry.Registry (Telemetry), subsystems register their counters
// and histograms *into* it (scan.Metrics.Register,
// feed.Watcher.RegisterMetrics, strategy.Telemetry().Register), and
// GET /v1/metrics renders the whole registry in Prometheus text format.
type Server struct {
	store distrib.Store
	start time.Time

	mu     sync.Mutex
	subs   map[int]chan *distrib.Frame
	nextID int
	closed bool

	scans        atomic.Uint64
	lastScanNano atomic.Int64
	// lastPublishNano is the wall clock of the most recent Publish — the
	// basis of healthz's last_update_age_seconds and the ok→stale cut.
	lastPublishNano atomic.Int64

	// tracker, when set, receives slow-consumer eviction counts.
	tracker *distrib.Tracker
	// writeTimeout bounds one SSE event write (0 = no deadline).
	writeTimeout time.Duration
	// staleAfter is the report age past which status reads "stale"
	// (0 disables staleness detection).
	staleAfter time.Duration
	// heartbeat is the idle interval between SSE comment lines on
	// /v1/stream (0 disables heartbeats).
	heartbeat time.Duration

	// deltaStats / connStats / feedStats / breakerStats, when set, are
	// polled per healthz request.
	deltaStats   atomic.Pointer[func() scan.DeltaStats]
	connStats    atomic.Pointer[func() distrib.ConnStats]
	feedStats    atomic.Pointer[func() feed.WatcherStats]
	breakerStats atomic.Pointer[func() map[string]source.BreakerState]
	oplogStats   atomic.Pointer[func() oplog.Stats]

	// reg is the server-owned metric registry behind /v1/metrics; the
	// distribution tier's own metrics live alongside whatever the
	// embedder registers.
	reg           *telemetry.Registry
	frameBuild    telemetry.Histogram
	reportPlain   telemetry.Counter
	reportGzip    telemetry.Counter
	reportTop     telemetry.Counter
	report304     telemetry.Counter
	sseEvents     telemetry.Counter
	sseEvictions  telemetry.Counter
	sseHeartbeats telemetry.Counter
}

// Option configures a Server at construction.
type Option func(*Server)

// WithConnTracker wires the connection tier's gauges: SSE slow-consumer
// evictions are counted on t, and t.Stats backs the /v1/healthz
// `connections` section (override or remove with SetConnStatsProbe).
// Share the same tracker with distrib.Limit so accepts, evictions, and
// fd headroom land in one snapshot.
func WithConnTracker(t *distrib.Tracker) Option {
	return func(s *Server) {
		s.tracker = t
		if t != nil {
			s.SetConnStatsProbe(t.Stats)
		}
	}
}

// WithWriteTimeout bounds each SSE event write; a client that cannot
// drain an event within d is evicted (its connection is closed) so a
// stalled reader can never pin buffers or a subscription slot for the
// life of the process. 0 disables the deadline; the default is
// DefaultWriteTimeout.
func WithWriteTimeout(d time.Duration) Option {
	return func(s *Server) { s.writeTimeout = d }
}

// WithStaleAfter sets the report age past which /v1/healthz reports
// "stale" (default DefaultStaleAfter). 0 disables staleness detection —
// status then never leaves ok/degraded once serving.
func WithStaleAfter(d time.Duration) Option {
	return func(s *Server) { s.staleAfter = d }
}

// WithHeartbeat sets the idle interval between SSE heartbeat comments on
// /v1/stream (default DefaultHeartbeat). A heartbeat is a `: heartbeat`
// comment line — invisible to EventSource consumers, but it keeps idle
// connections distinguishable from dead upstreams and defeats proxy idle
// timeouts. 0 disables heartbeats.
func WithHeartbeat(d time.Duration) Option {
	return func(s *Server) { s.heartbeat = d }
}

// SetBreakerStatsProbe registers a callback polled on every /v1/healthz
// request to report dependency circuit-breaker states keyed by
// dependency name (e.g. {"prices": breaker.State()}). Pass nil to
// unregister. Safe to call at any time.
func (s *Server) SetBreakerStatsProbe(fn func() map[string]source.BreakerState) {
	if fn == nil {
		s.breakerStats.Store(nil)
		return
	}
	s.breakerStats.Store(&fn)
}

// SetDeltaStatsProbe registers a callback polled on every /v1/healthz
// request to report the scanner's delta-engine counters (use
// Scanner.DeltaStats). Pass nil to unregister. Safe to call at any time.
func (s *Server) SetDeltaStatsProbe(fn func() scan.DeltaStats) {
	if fn == nil {
		s.deltaStats.Store(nil)
		return
	}
	s.deltaStats.Store(&fn)
}

// SetConnStatsProbe registers a callback polled on every /v1/healthz
// request to report the connection tier's gauges (use Tracker.Stats).
// Pass nil to unregister. Safe to call at any time.
func (s *Server) SetConnStatsProbe(fn func() distrib.ConnStats) {
	if fn == nil {
		s.connStats.Store(nil)
		return
	}
	s.connStats.Store(&fn)
}

// SetFeedStatsProbe registers a callback polled on every /v1/healthz
// request to report the pool feed's refresh/failure counters (use
// Watcher.Stats). Pass nil to unregister. Safe to call at any time.
func (s *Server) SetFeedStatsProbe(fn func() feed.WatcherStats) {
	if fn == nil {
		s.feedStats.Store(nil)
		return
	}
	s.feedStats.Store(&fn)
}

// SetOplogStatsProbe registers a callback polled on every /v1/healthz
// request to report the durable opportunity log's counters and write
// health (use Log.Stats). A degraded log flips the healthz status to
// "degraded". Pass nil to unregister. Safe to call at any time.
func (s *Server) SetOplogStatsProbe(fn func() oplog.Stats) {
	if fn == nil {
		s.oplogStats.Store(nil)
		return
	}
	s.oplogStats.Store(&fn)
}

// New builds an empty server; /v1/report returns 503 until the first
// Publish.
func New(opts ...Option) *Server {
	s := &Server{
		subs:         make(map[int]chan *distrib.Frame),
		writeTimeout: DefaultWriteTimeout,
		staleAfter:   DefaultStaleAfter,
		heartbeat:    DefaultHeartbeat,
		start:        time.Now(),
		reg:          telemetry.NewRegistry(),
	}
	for _, o := range opts {
		o(s)
	}
	s.registerMetrics()
	return s
}

// registerMetrics exposes the distribution tier's own metrics on the
// server registry.
func (s *Server) registerMetrics() {
	s.reg.Gauge("arbloop_uptime_seconds", "", "seconds since the server was constructed",
		func() float64 { return time.Since(s.start).Seconds() })
	s.reg.Gauge("arbloop_scans_published_total", "", "reports published into the frame store",
		func() float64 { return float64(s.scans.Load()) })
	s.reg.Counter("arbloop_frame_gzip_builds_total", "", "frames compressed for a gzip reader, at most once each",
		&s.store.GzipBuilds)
	s.reg.Gauge("arbloop_last_scan_seconds", "", "wall latency of the most recently published scan",
		func() float64 { return float64(s.lastScanNano.Load()) / float64(time.Second) })
	s.reg.Histogram("arbloop_frame_build_seconds", "", "time to encode one report into its immutable frame", &s.frameBuild)
	const reqHelp = "/v1/report responses by served variant"
	s.reg.Counter("arbloop_report_requests_total", `variant="plain"`, reqHelp, &s.reportPlain)
	s.reg.Counter("arbloop_report_requests_total", `variant="gzip"`, reqHelp, &s.reportGzip)
	s.reg.Counter("arbloop_report_requests_total", `variant="top"`, reqHelp, &s.reportTop)
	s.reg.Counter("arbloop_report_requests_total", `variant="not_modified"`, reqHelp, &s.report304)
	s.reg.Counter("arbloop_sse_events_total", "", "SSE report events written to subscribers", &s.sseEvents)
	s.reg.Counter("arbloop_sse_evictions_total", "", "SSE subscribers evicted past the write deadline", &s.sseEvictions)
	s.reg.Counter("arbloop_sse_heartbeats_total", "", "SSE heartbeat comments written on idle streams", &s.sseHeartbeats)
	s.reg.Gauge("arbloop_report_age_seconds", "", "age of the most recently published report (-1 before the first)",
		func() float64 { return s.reportAge().Seconds() })
}

// reportAge returns the age of the latest published report, or -1 before
// the first publish.
func (s *Server) reportAge() time.Duration {
	nano := s.lastPublishNano.Load()
	if nano == 0 {
		return -time.Second
	}
	return time.Since(time.Unix(0, nano))
}

// Telemetry returns the server-owned metric registry: the mount point
// for subsystem metrics (scanner, feed, solver) and the source behind
// GET /v1/metrics, the healthz telemetry section, and — via
// telemetry.Registry.PublishExpvar — the pprof listener's /debug/vars.
func (s *Server) Telemetry() *telemetry.Registry {
	return s.reg
}

// Store exposes the underlying report store (benchmarks and embedders).
func (s *Server) Store() *distrib.Store {
	return &s.store
}

// Publish commits the report to one immutable frame — the block's single
// encode — swaps it in, and fans it out to SSE subscribers. elapsed is
// the scan latency reported by /v1/healthz.
func (s *Server) Publish(r distrib.ReportJSON, elapsed time.Duration) error {
	buildStart := time.Now()
	f, err := s.store.Set(r)
	if err != nil {
		return err
	}
	s.frameBuild.Observe(time.Since(buildStart))
	s.scans.Add(1)
	s.lastScanNano.Store(int64(elapsed))
	s.lastPublishNano.Store(time.Now().UnixNano())

	s.mu.Lock()
	defer s.mu.Unlock()
	// Coalesce exactly like the pool feed: a slow SSE client gets the
	// newest frame, never a backlog of dead ones.
	for _, ch := range s.subs {
		feed.SendCoalesce(ch, f)
	}
	return nil
}

// Close ends every active SSE subscription, letting stream handlers
// return so an http.Server.Shutdown can complete instead of waiting out
// its deadline behind long-lived /v1/stream connections. Publish and the
// non-streaming endpoints keep working (embedders may drain scans after
// closing streams); Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for id, ch := range s.subs {
		delete(s.subs, id)
		close(ch)
	}
}

// subscribe registers an SSE subscriber with a coalescing one-frame
// buffer. After Close the channel comes back already closed.
func (s *Server) subscribe() (<-chan *distrib.Frame, func()) {
	ch := make(chan *distrib.Frame, 1)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	id := s.nextID
	s.nextID++
	s.subs[id] = ch
	s.mu.Unlock()
	return ch, func() {
		s.mu.Lock()
		delete(s.subs, id)
		s.mu.Unlock()
	}
}

// Handler returns the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/report", s.handleReport)
	mux.HandleFunc("GET /v1/stream", s.handleStream)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// writeJSONError emits an error body that is itself valid JSON with the
// right Content-Type (http.Error would label it text/plain).
func writeJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}

// acceptsGzip reports whether the request's Accept-Encoding lists gzip
// (or its alias x-gzip, any case) with a weight above zero: RFC 9110
// §12.5.3 reads q=0 as "not acceptable". It parses in place and
// allocates nothing on a well-formed header.
func acceptsGzip(r *http.Request) bool {
	for _, v := range r.Header.Values("Accept-Encoding") {
		for v != "" {
			var item string
			item, v, _ = strings.Cut(v, ",")
			coding, params, _ := strings.Cut(item, ";")
			coding = strings.TrimSpace(coding)
			if (strings.EqualFold(coding, "gzip") || strings.EqualFold(coding, "x-gzip")) && positiveWeight(params) {
				return true
			}
		}
	}
	return false
}

// positiveWeight reports whether a coding's parameters leave it
// acceptable: no q parameter, a q above zero, or one that does not parse.
func positiveWeight(params string) bool {
	for params != "" {
		var p string
		p, params, _ = strings.Cut(params, ";")
		name, value, _ := strings.Cut(p, "=")
		if strings.EqualFold(strings.TrimSpace(name), "q") {
			q, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
			return err != nil || q > 0
		}
	}
	return true
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	f := s.store.Frame()
	if f == nil {
		writeJSONError(w, http.StatusServiceUnavailable, "no report yet")
		return
	}
	body, tail, etag := f.Raw, []byte(nil), f.ETag
	// The steady-state path (no query) skips parsing entirely; ?top=N
	// re-slices the cached encoding — never a re-encode.
	if r.URL.RawQuery != "" {
		n, err := topParam(r)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
		body, tail, etag = f.Top(n)
	}
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Vary", "Accept-Encoding")
	h.Set("Cache-Control", "no-cache")
	// Age (RFC 9111 §5.1): seconds since this report was published, so a
	// client can judge freshness without parsing the body. Paired with
	// the healthz stale threshold — a large Age on a 200 is the "served
	// but stale" signal.
	if age := s.reportAge(); age >= 0 {
		h.Set("Age", strconv.FormatInt(int64(age.Seconds()), 10))
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" && distrib.ETagMatches(inm, etag) {
		s.report304.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", "application/json")
	if tail == nil && acceptsGzip(r) {
		// Full report only: the first gzip reader of a frame compresses
		// it, every later one gets the same bytes; prefix slices are
		// served identity-encoded. A failed compression falls back to
		// the identity body.
		if gz, err := f.GzipBody(); err == nil {
			s.reportGzip.Inc()
			h.Set("Content-Encoding", "gzip")
			h.Set("Content-Length", strconv.Itoa(len(gz)))
			_, _ = w.Write(gz)
			return
		}
	}
	if tail != nil {
		s.reportTop.Inc()
	} else {
		s.reportPlain.Inc()
	}
	h.Set("Content-Length", strconv.Itoa(len(body)+len(tail)))
	_, _ = w.Write(body)
	if tail != nil {
		_, _ = w.Write(tail)
	}
}

// topParam extracts ?top=N. 0 (or absence) means the full report;
// negative or malformed values are a client error.
func topParam(r *http.Request) (int, error) {
	v := r.URL.Query().Get("top")
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, errors.New("top must be a non-negative integer")
	}
	return n, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "starting", Scans: s.scans.Load(), LastUpdateAgeSeconds: -1}
	served := false
	if f := s.store.Frame(); f != nil {
		served = true
		h.Status = "ok"
		h.Version = f.Report.Version
		h.Height = f.Report.Height
		h.TopologyCacheHit = f.Report.TopologyCacheHit
		h.Strategy = f.Report.Strategy
		h.Degraded = f.Report.Degraded
	}
	if age := s.reportAge(); age >= 0 {
		h.LastUpdateAgeSeconds = age.Seconds()
	}
	lastScan := time.Duration(s.lastScanNano.Load())
	h.LastScanMillis = float64(lastScan) / float64(time.Millisecond)
	h.LastScanDuration = lastScan.String()
	h.UptimeSeconds = time.Since(s.start).Seconds()
	h.Telemetry = s.reg.Summary()
	if probe := s.feedStats.Load(); probe != nil {
		fs := (*probe)()
		h.Feed = &fs
	}
	if probe := s.breakerStats.Load(); probe != nil {
		h.Breakers = (*probe)()
	}
	if probe := s.oplogStats.Load(); probe != nil {
		os := (*probe)()
		h.Oplog = &os
	}
	// Status derivation, worst condition wins: stale (report older than
	// the threshold — the loop stopped producing) over degraded (still
	// producing, but on fallback prices, an open breaker, a failing
	// feed, or a durability-losing oplog) over ok.
	if served {
		switch {
		case s.staleAfter > 0 && s.reportAge() > s.staleAfter:
			h.Status = "stale"
		case h.Degraded,
			anyBreakerNotClosed(h.Breakers),
			h.Feed != nil && h.Feed.ConsecutiveFailures > 0,
			h.Oplog != nil && h.Oplog.Degraded:
			h.Status = "degraded"
		}
	}
	if probe := s.deltaStats.Load(); probe != nil {
		ds := (*probe)()
		h.Delta = &DeltaHealth{
			FullScans:     ds.FullScans,
			DeltaScans:    ds.DeltaScans,
			Shards:        ds.Shards,
			ShardsScanned: ds.ShardsScanned,
		}
	}
	if probe := s.connStats.Load(); probe != nil {
		cs := (*probe)()
		h.Connections = &cs
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(h)
}

// anyBreakerNotClosed reports whether any dependency breaker is open or
// half-open.
func anyBreakerNotClosed(m map[string]source.BreakerState) bool {
	for _, b := range m {
		if b.State != source.BreakerClosed {
			return true
		}
	}
	return false
}

// heartbeatComment is the SSE comment line written on idle streams: a
// field-less line EventSource clients ignore, but proxies and liveness
// checks see bytes moving.
var heartbeatComment = []byte(": heartbeat\n\n")

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSONError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// writeFrame pushes one pre-framed event under the write deadline.
	// A client stalled past it is evicted: the deadline poisons the
	// connection, the handler returns, and net/http tears it down —
	// healthy subscribers are untouched.
	writeFrame := func(f *distrib.Frame) error {
		if s.writeTimeout > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		}
		_, err := w.Write(f.SSE)
		if err == nil {
			err = rc.Flush()
			s.sseEvents.Inc()
		}
		if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
			s.sseEvictions.Inc()
			if s.tracker != nil {
				s.tracker.Evict()
			}
		}
		return err
	}

	// writeHeartbeat pushes one comment line under the same deadline and
	// eviction rules as a report event.
	writeHeartbeat := func() error {
		if s.writeTimeout > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		}
		_, err := w.Write(heartbeatComment)
		if err == nil {
			err = rc.Flush()
			s.sseHeartbeats.Inc()
		}
		if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
			s.sseEvictions.Inc()
			if s.tracker != nil {
				s.tracker.Evict()
			}
		}
		return err
	}

	ch, cancel := s.subscribe()
	defer cancel()

	// Heartbeats let a client (and any proxy between) distinguish "no
	// opportunities published lately" from "dead upstream": with no
	// report flowing, a comment still moves every heartbeat interval.
	var hb <-chan time.Time
	if s.heartbeat > 0 {
		t := time.NewTicker(s.heartbeat)
		defer t.Stop()
		hb = t.C
	}

	// A fresh client sees the current report immediately instead of
	// waiting out the rest of the block interval — unless it reconnected
	// with Last-Event-ID naming the frame it already has.
	lastID := r.Header.Get("Last-Event-ID")
	if f := s.store.Frame(); f != nil && f.EventID != lastID {
		if err := writeFrame(f); err != nil {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-hb:
			if err := writeHeartbeat(); err != nil {
				return
			}
		case f, ok := <-ch:
			if !ok { // server closed: end the stream
				return
			}
			if err := writeFrame(f); err != nil {
				return
			}
		}
	}
}
