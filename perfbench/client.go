package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"arbloop/internal/distrib"
)

// clock reads monotonic time as ns since a run's base instant, the unit
// every recorded instant and span uses.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// sleepUntil sleeps until the clock reads t (no-op when t has passed).
func (c clock) sleepUntil(t int64) {
	if d := t - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// checkLog collects output-check failures: a count and the first few
// messages. One goroutine owns each log.
type checkLog struct {
	n    int
	msgs []string
}

func (l *checkLog) failf(format string, a ...any) {
	l.n++
	if len(l.msgs) < 8 {
		l.msgs = append(l.msgs, fmt.Sprintf(format, a...))
	}
}

// decodeReport decodes one wire report strictly: an unknown field fails,
// so the harness notices a wire change it does not understand.
func decodeReport(data []byte) (distrib.ReportJSON, error) {
	var rep distrib.ReportJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return rep, err
	}
	if dec.More() {
		return rep, fmt.Errorf("trailing data after report")
	}
	return rep, nil
}

// sseClient is the benchmark's one stream subscriber: it reads
// GET /v1/stream on a raw keep-alive connection, timestamps each report
// event when its last byte has been read, and checks every event.
type sseClient struct {
	clk    clock
	conn   net.Conn
	keep   func(version uint64) bool
	events []clientEvent
	// served holds the decoded reports of the versions keep selects, for
	// the post-run verification against fresh full scans.
	served    map[uint64]distrib.ReportJSON
	maxHeight atomic.Int64
	first     chan struct{}
	checks    checkLog
	last      uint64
}

func dialSSE(addr string, clk clock, capEvents int, keep func(uint64) bool) (*sseClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial stream: %w", err)
	}
	return &sseClient{
		clk:    clk,
		conn:   conn,
		keep:   keep,
		events: make([]clientEvent, 0, capEvents),
		served: make(map[uint64]distrib.ReportJSON),
		first:  make(chan struct{}),
	}, nil
}

// run reads the stream until the server ends it or the connection is
// closed; it owns every field but maxHeight until it returns.
func (c *sseClient) run() {
	req, err := http.NewRequest(http.MethodGet, "http://perfbench/v1/stream", nil)
	if err != nil {
		c.checks.failf("stream request: %v", err)
		return
	}
	if _, err := io.WriteString(c.conn, "GET /v1/stream HTTP/1.1\r\nHost: perfbench\r\nAccept: text/event-stream\r\n\r\n"); err != nil {
		c.checks.failf("stream request: %v", err)
		return
	}
	resp, err := http.ReadResponse(bufio.NewReaderSize(c.conn, 64<<10), req)
	if err != nil {
		c.checks.failf("stream response: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		c.checks.failf("stream response: status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
		return
	}
	var p sseParser
	buf := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if perr := p.Feed(buf[:n], c.onEvent); perr != nil {
				c.checks.failf("stream: %v", perr)
				return
			}
		}
		if err != nil {
			return // server closed the stream or the harness closed the connection
		}
	}
}

func (c *sseClient) onEvent(ev sseEvent) error {
	read := c.clk.now()
	if ev.event != "report" {
		c.checks.failf("stream: unexpected event %q", ev.event)
		return nil
	}
	rep, err := decodeReport(ev.data)
	if err != nil {
		c.checks.failf("stream: event id %s does not decode as a report: %v", ev.id, err)
		return nil
	}
	if rep.Version <= c.last {
		c.checks.failf("stream: version %d after %d", rep.Version, c.last)
		return nil
	}
	if ev.id != strconv.FormatUint(rep.Version, 10) {
		c.checks.failf("stream: event id %q for version %d", ev.id, rep.Version)
	}
	c.last = rep.Version
	c.events = append(c.events, clientEvent{version: rep.Version, height: rep.Height, read: read})
	c.maxHeight.Store(rep.Height)
	if c.keep(rep.Version) {
		c.served[rep.Version] = rep
	}
	if len(c.events) == 1 {
		close(c.first)
	}
	return nil
}

// Read kinds of the report read mix, by share of requests.
const (
	readRevalidate = iota // 70%: If-None-Match with the last ETag seen
	readGzip              // 20%: Accept-Encoding: gzip, full report
	readTop               // 10%: ?top=5
)

func readKind(roll int) int {
	switch {
	case roll < 70:
		return readRevalidate
	case roll < 90:
		return readGzip
	default:
		return readTop
	}
}

// readSample is one report read: its due time, latency from the
// request's write to the full response, and how late it was sent.
type readSample struct {
	due, lat, late int64
	ok             bool
}

// reader issues open-loop GET /v1/report requests on one keep-alive
// connection. Request i is due at a seeded uniform point of the i-th
// 1/rate slot from t0: the rate is exact, and unlike a fixed spacing the
// requests do not hold one phase of the block cycle. A request is sent at
// once when the reader is behind its schedule.
type reader struct {
	clk     clock
	addr    string
	rate    int
	rng     *rand.Rand
	conn    net.Conn
	br      *bufio.Reader
	req     *http.Request
	etag    string
	body    bytes.Buffer
	samples []readSample
	checks  checkLog
	stop    atomic.Bool
	seen    int
}

// readCheckEvery is how often a 200 response is fully decoded and
// matched against its ETag.
const readCheckEvery = 32

func newReader(addr string, clk clock, rate int, seed int64, capSamples int) (*reader, error) {
	req, err := http.NewRequest(http.MethodGet, "http://perfbench/v1/report", nil)
	if err != nil {
		return nil, err
	}
	r := &reader{clk: clk, addr: addr, rate: rate, rng: rand.New(rand.NewSource(seed)), req: req,
		samples: offHeap[readSample](capSamples)[:0]}
	if err := r.dial(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *reader) dial() error {
	if r.conn != nil {
		r.conn.Close()
	}
	conn, err := net.Dial("tcp", r.addr)
	if err != nil {
		return fmt.Errorf("dial reader: %w", err)
	}
	r.conn, r.br = conn, bufio.NewReaderSize(conn, 64<<10)
	return nil
}

// run issues the requests due in [t0, end] until stopped.
func (r *reader) run(t0, end int64) {
	period := float64(time.Second) / float64(r.rate)
	for i := 0; ; i++ {
		due := t0 + int64((float64(i)+r.rng.Float64())*period)
		if due > end || r.stop.Load() {
			return
		}
		r.clk.sleepUntil(due)
		if r.stop.Load() {
			return
		}
		late := r.clk.now() - due
		lat, err := r.one(readKind(r.rng.Intn(100)))
		r.samples = append(r.samples, readSample{due: due, lat: lat, late: late, ok: err == nil})
		if err != nil {
			r.checks.failf("read due at %d: %v", due, err)
			if derr := r.dial(); derr != nil {
				r.checks.failf("%v", derr)
				return
			}
		}
	}
}

// one issues a single read and checks its response.
func (r *reader) one(kind int) (int64, error) {
	var req string
	switch kind {
	case readRevalidate:
		req = "GET /v1/report HTTP/1.1\r\nHost: perfbench\r\n"
		if r.etag != "" {
			req += "If-None-Match: " + r.etag + "\r\n"
		}
		req += "\r\n"
	case readGzip:
		req = "GET /v1/report HTTP/1.1\r\nHost: perfbench\r\nAccept-Encoding: gzip\r\n\r\n"
	default:
		req = "GET /v1/report?top=5 HTTP/1.1\r\nHost: perfbench\r\n\r\n"
	}
	start := r.clk.now()
	if _, err := io.WriteString(r.conn, req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(r.br, r.req)
	if err != nil {
		return 0, err
	}
	r.body.Reset()
	_, err = r.body.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := r.clk.now() - start
	if err != nil {
		return lat, err
	}
	return lat, r.check(kind, resp)
}

// check enforces the read contract: 200 or 304, with the encoding that
// was asked for; a sample of bodies is decoded and matched to its ETag.
func (r *reader) check(kind int, resp *http.Response) error {
	enc := resp.Header.Get("Content-Encoding")
	etag := resp.Header.Get("ETag")
	switch {
	case resp.StatusCode == http.StatusNotModified:
		if kind != readRevalidate || r.etag == "" || r.body.Len() != 0 {
			return fmt.Errorf("unexpected 304 (kind %d)", kind)
		}
		return nil
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("status %d", resp.StatusCode)
	case kind == readGzip && enc != "gzip":
		return fmt.Errorf("gzip asked, got encoding %q", enc)
	case kind != readGzip && enc != "":
		return fmt.Errorf("identity asked, got encoding %q", enc)
	case etag == "":
		return fmt.Errorf("200 without ETag")
	case kind == readRevalidate && etag == r.etag:
		return fmt.Errorf("200 for a matching ETag %s", etag)
	}
	body := r.body.Bytes()
	if kind == readGzip && (len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b) {
		return fmt.Errorf("gzip body without gzip header")
	}
	if kind != readTop {
		r.etag = etag
	}
	if r.seen++; r.seen%readCheckEvery != 0 {
		return nil
	}
	if kind == readGzip {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return err
		}
		if body, err = io.ReadAll(zr); err != nil {
			return fmt.Errorf("gunzip: %w", err)
		}
	}
	rep, err := decodeReport(body)
	if err != nil {
		return fmt.Errorf("body does not decode as a report: %w", err)
	}
	if kind == readTop && len(rep.Results) > 5 {
		return fmt.Errorf("?top=5 served %d results", len(rep.Results))
	}
	// A ?top=5 prefix has its own validator unless the report has at most
	// five results, when the full representation is served.
	full := fmt.Sprintf("\"v%d-h%d\"", rep.Version, rep.Height)
	top := fmt.Sprintf("\"v%d-h%d-t5\"", rep.Version, rep.Height)
	if etag != full && (kind != readTop || etag != top) {
		return fmt.Errorf("ETag %s for report v%d h%d", etag, rep.Version, rep.Height)
	}
	return nil
}
