package server

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arbloop/internal/distrib"
	"arbloop/internal/scan"
)

func sampleReport(version uint64, height int64) distrib.ReportJSON {
	return distrib.Encode(scan.Report{
		Strategy:         "MaxMax",
		Parallelism:      2,
		Tokens:           3,
		Pools:            3,
		CyclesExamined:   1,
		LoopsDetected:    1,
		TopologyCacheHit: version > 1,
	}, version, height)
}

func TestStoreAtomicSwap(t *testing.T) {
	var st distrib.Store
	if f := st.Frame(); f != nil {
		t.Error("empty store returned a frame")
	}
	f1, err := st.Set(sampleReport(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Frame(); got != f1 || got.Report.Version != 1 {
		t.Fatalf("Frame after Set = %p, want %p", got, f1)
	}
	var decoded distrib.ReportJSON
	if err := json.Unmarshal(f1.Raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Version != 1 || decoded.Height != 10 || decoded.Strategy != "MaxMax" {
		t.Errorf("decoded = %+v", decoded)
	}
	f2, err := st.Set(sampleReport(2, 11))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Frame(); got != f2 || got.Report.Version != 2 {
		t.Errorf("swap kept v%d", got.Report.Version)
	}
}

func TestReportEndpoint(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("empty service = %d, want 503", resp.StatusCode)
	}

	if err := srv.Publish(sampleReport(1, 5), 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
	var rep distrib.ReportJSON
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Version != 1 || rep.Height != 5 {
		t.Errorf("report = v%d h%d", rep.Version, rep.Height)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var h Health
	get := func() {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status = %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
	}

	get()
	if h.Status != "starting" || h.Scans != 0 {
		t.Errorf("pre-publish health = %+v", h)
	}

	if err := srv.Publish(sampleReport(2, 7), 4*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	get()
	if h.Status != "ok" || h.Version != 2 || h.Height != 7 || h.Scans != 1 {
		t.Errorf("health = %+v", h)
	}
	if h.LastScanMillis != 4 {
		t.Errorf("last_scan_ms = %g, want 4", h.LastScanMillis)
	}
	if !h.TopologyCacheHit {
		t.Error("cache hit not reflected in health")
	}
	if h.Delta != nil {
		t.Errorf("delta section present without a probe: %+v", h.Delta)
	}

	// With a probe registered the delta counters appear; unregistering
	// removes them again.
	srv.SetDeltaStatsProbe(func() scan.DeltaStats {
		return scan.DeltaStats{FullScans: 1, DeltaScans: 41, Shards: 4, ShardsScanned: 9}
	})
	get()
	if h.Delta == nil {
		t.Fatal("no delta section with a probe registered")
	}
	if h.Delta.FullScans != 1 || h.Delta.DeltaScans != 41 || h.Delta.Shards != 4 || h.Delta.ShardsScanned != 9 {
		t.Errorf("delta health = %+v", h.Delta)
	}
	srv.SetDeltaStatsProbe(nil)
	h = Health{}
	get()
	if h.Delta != nil {
		t.Errorf("delta section survived unregistering: %+v", h.Delta)
	}
}

// readEvents consumes SSE `data:` payloads from the stream until n events
// arrive or the context expires.
func readEvents(ctx context.Context, t *testing.T, url string, n int, ready chan<- struct{}) []distrib.ReportJSON {
	t.Helper()
	// ready fires once the first event is read, not at the headers: the
	// handler reads the frame it replays after sending the headers, so a
	// publish in between would be the first event instead. It also fires
	// on any early return, so a waiting caller never hangs.
	signal := func() {
		if ready != nil {
			close(ready)
			ready = nil
		}
	}
	defer signal()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("stream content-type = %q", ct)
	}
	var out []distrib.ReportJSON
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() && len(out) < n {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var rep distrib.ReportJSON
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rep); err != nil {
			t.Fatal(err)
		}
		out = append(out, rep)
		signal()
	}
	return out
}

func TestStreamDeliversPublishedReports(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Pre-publish: a fresh stream client must get the current report
	// immediately, then the per-block updates.
	if err := srv.Publish(sampleReport(1, 1), time.Millisecond); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ready := make(chan struct{})
	done := make(chan []distrib.ReportJSON, 1)
	go func() { done <- readEvents(ctx, t, ts.URL, 3, ready) }()

	<-ready
	// Publish until the client has collected three events; the stream
	// coalesces to the latest frame, so keep feeding.
	go func() {
		for v := uint64(2); ctx.Err() == nil; v++ {
			if err := srv.Publish(sampleReport(v, int64(v)), time.Millisecond); err != nil {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	events := <-done
	if len(events) != 3 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0].Version != 1 {
		t.Errorf("first event v%d, want the pre-subscribe report v1", events[0].Version)
	}
	last := uint64(0)
	for _, e := range events {
		if e.Version <= last {
			t.Errorf("stream versions not increasing: %d after %d", e.Version, last)
		}
		last = e.Version
	}
}

func TestConcurrentReadersDuringPublishes(t *testing.T) {
	srv := New()
	if err := srv.Publish(sampleReport(1, 1), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	go func() {
		for v := uint64(2); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = srv.Publish(sampleReport(v, int64(v)), time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				resp, err := http.Get(ts.URL + "/v1/report")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := io.ReadAll(resp.Body); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status = %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
}

func TestMethodNotAllowed(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/report", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/report = %d, want 405", resp.StatusCode)
	}
}

func TestCloseEndsActiveStreams(t *testing.T) {
	srv := New()
	if err := srv.Publish(sampleReport(1, 1), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Close must end the stream: the body reaches EOF without the client
	// cancelling anything.
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, resp.Body)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the handler subscribe
	srv.Close()
	srv.Close() // idempotent
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not end on server Close")
	}

	// Post-Close subscriptions come back closed; report still serves.
	resp2, err := http.Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(body), "event: report") {
		t.Error("post-Close stream missing the current-report event")
	}
	resp3, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("report after Close = %d", resp3.StatusCode)
	}
}

// --- distribution-tier HTTP semantics ---

// bigReport builds a report whose encoding is large enough that a
// re-encode or re-compress per request would dominate any alloc budget.
func bigReport(version uint64, height int64, results int) distrib.ReportJSON {
	r := sampleReport(version, height)
	for i := 0; i < results; i++ {
		r.Results = append(r.Results, distrib.ResultJSON{
			Index:     i,
			Loop:      strings.Repeat("ABC→", 64) + "A",
			Strategy:  "MaxMax",
			ProfitUSD: float64(results - i),
			NetTokens: map[string]float64{"A": 1, "B": 2, "C": 3},
		})
	}
	return r
}

func TestReportETagRoundTrip(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Publish(bigReport(1, 5, 3), time.Millisecond); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("ETag = %q", etag)
	}

	// Conditional revalidation: the same validator yields 304 and no body.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/report", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match hit = %d, want 304", resp.StatusCode)
	}
	if len(body) != 0 {
		t.Errorf("304 carried %d body bytes", len(body))
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Errorf("304 ETag = %q, want %q", got, etag)
	}

	// A stale validator serves the full report again.
	req.Header.Set("If-None-Match", `"v0-h0"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stale If-None-Match = %d, want 200", resp.StatusCode)
	}

	// Publishing a new block invalidates the old validator.
	if err := srv.Publish(bigReport(2, 6, 3), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("old validator after publish = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got == etag {
		t.Error("ETag did not change across publishes")
	}
}

func TestReportGzipNegotiation(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Publish(bigReport(1, 5, 10), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// DisableCompression: we manage Accept-Encoding ourselves to see the
	// raw negotiated representation.
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}

	get := func(acceptEncoding string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/report", nil)
		if acceptEncoding != "" {
			req.Header.Set("Accept-Encoding", acceptEncoding)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if vary := resp.Header.Get("Vary"); vary != "Accept-Encoding" {
			t.Errorf("Accept-Encoding %q: Vary = %q", acceptEncoding, vary)
		}
		return resp, body
	}

	_, plain := get("")
	for _, c := range []struct {
		acceptEncoding string
		gzip           bool
	}{
		{"", false},
		{"identity", false},
		{"gzip", true},
		{"GZIP", true},
		{"x-gzip", true},
		{"deflate, gzip;q=0.5", true},
		{"br;q=1.0, gzip ; q=0.001", true},
		// RFC 9110 §12.5.3: q=0 means "not acceptable".
		{"gzip;q=0", false},
		{"gzip; q=0.0", false},
		{"deflate, gzip;q=0", false},
		{"Gzip;Q=0.000, identity", false},
	} {
		resp, body := get(c.acceptEncoding)
		ce := resp.Header.Get("Content-Encoding")
		if !c.gzip {
			if ce != "" || !bytes.Equal(body, plain) {
				t.Errorf("Accept-Encoding %q: Content-Encoding %q, want the identity body", c.acceptEncoding, ce)
			}
			continue
		}
		if ce != "gzip" {
			t.Errorf("Accept-Encoding %q: Content-Encoding = %q, want gzip", c.acceptEncoding, ce)
			continue
		}
		if len(body) >= len(plain) {
			t.Errorf("Accept-Encoding %q: gzip body (%d) not smaller than plain (%d)", c.acceptEncoding, len(body), len(plain))
		}
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		decompressed, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(decompressed, plain) {
			t.Errorf("Accept-Encoding %q: gzip representation does not decompress to the identity body", c.acceptEncoding)
		}
	}
}

// TestFrameGzipOnDemand pins "compressed only on demand, once per
// frame": plain, 304 and ?top=N reads compress nothing, and two gzip
// reads of each of 10 of the 50 published frames build 10 bodies, each
// the bytes a fresh gzip.NewWriter gives.
func TestFrameGzipOnDemand(t *testing.T) {
	srv := New()
	h := srv.Handler()
	get := func(target, header, value string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, target, nil)
		if header != "" {
			req.Header.Set(header, value)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	builds := func() uint64 { return srv.Store().GzipBuilds.Load() }
	for i := 0; i < 50; i++ {
		if err := srv.Publish(top20Report(uint64(i+1), int64(i+100)), time.Millisecond); err != nil {
			t.Fatal(err)
		}
		f := srv.Store().Frame()
		before := builds()
		for _, c := range []struct {
			target, header, value string
			code                  int
		}{
			{"/v1/report", "", "", http.StatusOK},
			{"/v1/report", "Accept-Encoding", "identity", http.StatusOK},
			{"/v1/report", "If-None-Match", f.ETag, http.StatusNotModified},
			{"/v1/report?top=5", "", "", http.StatusOK},
			{"/v1/report?top=5", "Accept-Encoding", "gzip", http.StatusOK},
		} {
			if w := get(c.target, c.header, c.value); w.Code != c.code || w.Header().Get("Content-Encoding") != "" {
				t.Fatalf("frame %d, %s %s: %q: status %d, Content-Encoding %q", i, c.target, c.header, c.value,
					w.Code, w.Header().Get("Content-Encoding"))
			}
		}
		if n := builds(); n != before {
			t.Errorf("frame %d: plain, 304 and top=N reads built %d gzip bodies", i, n-before)
		}
		if i%5 != 0 {
			continue
		}
		want := gzipFresh(t, f.Raw)
		for range 2 {
			w := get("/v1/report", "Accept-Encoding", "gzip")
			if w.Header().Get("Content-Encoding") != "gzip" || !bytes.Equal(w.Body.Bytes(), want) {
				t.Errorf("frame %d: gzip read is not a fresh gzip.NewWriter's compression of Raw", i)
			}
		}
	}
	if n := builds(); n != 10 {
		t.Errorf("two gzip reads of each of 10 frames built %d bodies, want 10", n)
	}
}

// gzipFresh compresses raw with a new writer at the default level.
func gzipFresh(t *testing.T, raw []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestReportTopParam(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Publish(bigReport(1, 5, 6), time.Millisecond); err != nil {
		t.Fatal(err)
	}

	var full distrib.ReportJSON
	get := func(q string, into *distrib.ReportJSON) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/report" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("GET %s: %v", q, err)
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return resp
	}
	get("", &full)
	if len(full.Results) != 6 {
		t.Fatalf("full report has %d results", len(full.Results))
	}

	// ?top=N is a decode-equivalent prefix of the full report.
	for _, n := range []int{1, 3, 5} {
		var got distrib.ReportJSON
		resp := get(fmt.Sprintf("?top=%d", n), &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("?top=%d status %d", n, resp.StatusCode)
		}
		want := full
		want.Results = full.Results[:n]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("?top=%d differs from full-report prefix", n)
		}
	}

	// Clamping: 0 and past-the-end serve the full report.
	for _, q := range []string{"?top=0", "?top=6", "?top=999"} {
		var got distrib.ReportJSON
		if get(q, &got); len(got.Results) != 6 {
			t.Errorf("%s returned %d results, want all 6", q, len(got.Results))
		}
	}

	// Distinct representations get distinct validators, each honoring
	// If-None-Match.
	respTop := get("?top=2", nil)
	topETag := respTop.Header.Get("ETag")
	respFull := get("", nil)
	if topETag == "" || topETag == respFull.Header.Get("ETag") {
		t.Errorf("top=2 ETag %q not distinct from full %q", topETag, respFull.Header.Get("ETag"))
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/report?top=2", nil)
	req.Header.Set("If-None-Match", topETag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("top=2 If-None-Match = %d, want 304", resp.StatusCode)
	}

	// Malformed values are a JSON 400.
	for _, q := range []string{"?top=-1", "?top=abc", "?top=1.5"} {
		resp, err := http.Get(ts.URL + "/v1/report" + q)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Errorf("%s error body is not JSON: %v", q, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", q, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s error Content-Type = %q", q, ct)
		}
		if e.Error == "" {
			t.Errorf("%s error body empty", q)
		}
	}
}

// TestJSONErrorBodies: every error path answers JSON with the right
// Content-Type (http.Error would have said text/plain).
func TestJSONErrorBodies(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty service = %d, want 503", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("503 Content-Type = %q", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("503 body not a JSON error (%v, %+v)", err, e)
	}
}

// TestStreamEventIDsAndResume: events carry the feed version as SSE id,
// and a reconnect with Last-Event-ID naming the current frame skips the
// duplicate initial replay.
func TestStreamEventIDsAndResume(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Publish(sampleReport(1, 1), time.Millisecond); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// readFirstEvent returns the id and data version of the first event.
	readFirstEvent := func(lastEventID string) (id string, version uint64) {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/stream", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		stop := make(chan struct{})
		defer close(stop)
		if lastEventID != "" {
			// The resumed client must wait for a *new* block: pump
			// publishes until its first event lands.
			go func() {
				for v := uint64(2); ; v++ {
					select {
					case <-stop:
						return
					case <-time.After(5 * time.Millisecond):
					}
					_ = srv.Publish(sampleReport(v, int64(v)), time.Millisecond)
				}
			}()
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "id: ") {
				id = strings.TrimPrefix(line, "id: ")
			}
			if strings.HasPrefix(line, "data: ") {
				var rep distrib.ReportJSON
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rep); err != nil {
					t.Fatal(err)
				}
				return id, rep.Version
			}
		}
		t.Fatalf("stream ended without an event (last id %q): %v", id, sc.Err())
		return "", 0
	}

	// Fresh client: immediate replay of the current frame, id == version.
	id, v := readFirstEvent("")
	if id != "1" || v != 1 {
		t.Errorf("fresh client first event id=%q v=%d, want id=1 v=1", id, v)
	}
	// Resumed client already holding v1: no duplicate replay — the first
	// event is a later block, ids still tracking versions.
	id, v = readFirstEvent("1")
	if v <= 1 {
		t.Errorf("resumed client replayed v%d despite Last-Event-ID: 1", v)
	}
	if id == "" || id != fmt.Sprintf("%d", v) {
		t.Errorf("resumed event id %q does not match version %d", id, v)
	}
}

// smallBufferListener shrinks each accepted conn's kernel write buffer
// so a non-reading client back-pressures the server in a test-sized
// number of events.
type smallBufferListener struct {
	net.Listener
}

func (l smallBufferListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4 << 10)
	}
	return c, nil
}

// TestSlowConsumerEviction: a stalled SSE client is evicted once it
// cannot drain an event within the write deadline; healthy clients keep
// streaming throughout. Run under -race in CI.
func TestSlowConsumerEviction(t *testing.T) {
	tr := distrib.NewTracker()
	srv := New(WithConnTracker(tr), WithWriteTimeout(500*time.Millisecond))
	// ~70 KB frames overflow the shrunk socket buffers in an event or
	// two, while a reading client drains one in well under the deadline.
	if err := srv.Publish(bigReport(1, 1, 200), time.Millisecond); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(smallBufferListener{ln})
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Healthy client: counts events for the duration.
	var healthyEvents atomic.Uint64
	healthyUp := make(chan struct{})
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stream", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			close(healthyUp)
			return
		}
		defer resp.Body.Close()
		close(healthyUp)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 4<<20), 4<<20)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data: ") {
				healthyEvents.Add(1)
			}
		}
	}()
	<-healthyUp

	// Stalled client: sends the request, shrinks its receive window, and
	// never reads a byte.
	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if tc, ok := stalled.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4 << 10)
	}
	if _, err := stalled.Write([]byte("GET /v1/stream HTTP/1.1\r\nHost: bench\r\n\r\n")); err != nil {
		t.Fatal(err)
	}

	// Publish until the stalled client trips the write deadline.
	deadline := time.Now().Add(20 * time.Second)
	v := uint64(2)
	for tr.Evicted() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no eviction after %d publishes (stats %+v)", v-2, tr.Stats())
		}
		if err := srv.Publish(bigReport(v, int64(v), 200), time.Millisecond); err != nil {
			t.Fatal(err)
		}
		v++
		time.Sleep(10 * time.Millisecond)
	}

	// The evicted connection is actually closed: draining it hits EOF /
	// reset rather than blocking forever.
	_ = stalled.SetReadDeadline(time.Now().Add(10 * time.Second))
	drained := make([]byte, 64<<10)
	for {
		if _, err := stalled.Read(drained); err != nil {
			break
		}
	}

	// Healthy client was unaffected: it keeps receiving post-eviction
	// publishes.
	target := healthyEvents.Load() + 2
	deadline = time.Now().Add(10 * time.Second)
	for healthyEvents.Load() < target {
		if time.Now().After(deadline) {
			t.Fatalf("healthy client stopped at %d events after eviction", healthyEvents.Load())
		}
		if err := srv.Publish(bigReport(v, int64(v), 10), time.Millisecond); err != nil {
			t.Fatal(err)
		}
		v++
		time.Sleep(20 * time.Millisecond)
	}
}

func TestHealthzConnectionsSection(t *testing.T) {
	tr := distrib.NewTracker()
	srv := New(WithConnTracker(tr))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tr.Evict()
	var h Health
	get := func() {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		h = Health{}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
	}
	get()
	if h.Connections == nil {
		t.Fatal("no connections section with a tracker wired")
	}
	if h.Connections.Evicted != 1 {
		t.Errorf("connections = %+v, want evicted 1", h.Connections)
	}
	if runtime.GOOS == "linux" && h.Connections.FDSoftLimit == 0 {
		t.Error("no fd soft limit probed on linux")
	}

	// The probe pattern mirrors SetDeltaStatsProbe: replace and remove.
	srv.SetConnStatsProbe(func() distrib.ConnStats { return distrib.ConnStats{Active: 42} })
	get()
	if h.Connections == nil || h.Connections.Active != 42 {
		t.Errorf("custom probe not honored: %+v", h.Connections)
	}
	srv.SetConnStatsProbe(nil)
	get()
	if h.Connections != nil {
		t.Errorf("connections survived unregistering: %+v", h.Connections)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := New()
	// External subsystems mount into the same registry the handler
	// renders — the scan engine's families stand in for all of them.
	m := scan.NewMetrics()
	m.Register(srv.Telemetry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
			t.Errorf("content-type = %q, want Prometheus text 0.0.4", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// Pre-publish: the server's own families exist from construction.
	body := scrape()
	for _, want := range []string{
		"# TYPE arbloop_uptime_seconds gauge",
		"arbloop_scans_published_total 0",
		"arbloop_frame_gzip_builds_total 0",
		"# TYPE arbloop_frame_build_seconds histogram",
		"# TYPE arbloop_scans_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Publish + one read per variant: the publish counter, the
	// frame-build histogram, and the request-variant counters advance.
	// (The default client negotiates gzip; the plain read opts out.)
	if err := srv.Publish(sampleReport(1, 5), 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/report", nil)
	if err != nil {
		t.Fatal(err)
	}
	// An explicit Accept-Encoding stops the transport injecting gzip.
	req.Header.Set("Accept-Encoding", "identity")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	body = scrape()
	for _, want := range []string{
		"arbloop_scans_published_total 1",
		"arbloop_frame_build_seconds_count 1",
		`arbloop_report_requests_total{variant="gzip"} 1`,
		`arbloop_report_requests_total{variant="plain"} 1`,
		"arbloop_frame_gzip_builds_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("post-publish metrics missing %q", want)
		}
	}

	// Non-GET is rejected like every other read endpoint.
	post, err := http.Post(ts.URL+"/v1/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/metrics = %d, want 405", post.StatusCode)
	}
}

func TestHealthzTelemetrySection(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := srv.Publish(sampleReport(3, 9), 4*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %g", h.UptimeSeconds)
	}
	if d, err := time.ParseDuration(h.LastScanDuration); err != nil || d != 4*time.Millisecond {
		t.Errorf("last_scan_duration = %q (%v), want 4ms", h.LastScanDuration, err)
	}
	if h.Telemetry == nil {
		t.Fatal("no telemetry section in healthz")
	}
	if got := h.Telemetry["arbloop_scans_published_total"]; got != 1 {
		t.Errorf("telemetry scans_published = %g, want 1", got)
	}
	if h.Feed != nil {
		t.Errorf("feed section present without a probe: %+v", h.Feed)
	}
}
