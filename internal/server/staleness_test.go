package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"arbloop/internal/distrib"
	"arbloop/internal/scan"
	"arbloop/internal/source"
)

func getHealth(t *testing.T, url string) Health {
	t.Helper()
	resp, err := http.Get(url + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// The full status lifecycle: starting → ok → degraded (fallback-priced
// report) → stale (no publish past the stale-after threshold).
func TestHealthzStatusLifecycle(t *testing.T) {
	const staleAfter = 80 * time.Millisecond
	srv := New(WithStaleAfter(staleAfter))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if h := getHealth(t, ts.URL); h.Status != "starting" || h.LastUpdateAgeSeconds != -1 {
		t.Fatalf("pre-publish health = %+v, want starting/-1", h)
	}

	if err := srv.Publish(sampleReport(1, 5), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if h := getHealth(t, ts.URL); h.Status != "ok" || h.LastUpdateAgeSeconds < 0 || h.Degraded {
		t.Fatalf("fresh health = %+v, want ok", h)
	}

	degraded := distrib.Encode(scan.Report{Strategy: "MaxMax", Degraded: true}, 2, 6)
	if err := srv.Publish(degraded, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if h := getHealth(t, ts.URL); h.Status != "degraded" || !h.Degraded {
		t.Fatalf("degraded health = %+v, want degraded", h)
	}

	time.Sleep(staleAfter + 30*time.Millisecond)
	if h := getHealth(t, ts.URL); h.Status != "stale" {
		t.Fatalf("aged health = %+v, want stale (age %.3fs)", h, h.LastUpdateAgeSeconds)
	}
}

// An open dependency breaker flips status to degraded and surfaces in the
// per-dependency breakers section.
func TestHealthzBreakersSection(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Publish(sampleReport(1, 5), time.Millisecond); err != nil {
		t.Fatal(err)
	}

	state := source.BreakerState{State: source.BreakerClosed, LastSuccessAgeSeconds: -1}
	srv.SetBreakerStatsProbe(func() map[string]source.BreakerState {
		return map[string]source.BreakerState{"prices": state}
	})
	if h := getHealth(t, ts.URL); h.Status != "ok" || h.Breakers["prices"].State != source.BreakerClosed {
		t.Fatalf("closed-breaker health = %+v", h)
	}

	state = source.BreakerState{State: source.BreakerOpen, ConsecutiveFailures: 5, Trips: 1, LastSuccessAgeSeconds: 12}
	h := getHealth(t, ts.URL)
	if h.Status != "degraded" {
		t.Fatalf("open-breaker status = %q, want degraded", h.Status)
	}
	if b := h.Breakers["prices"]; b.State != source.BreakerOpen || b.Trips != 1 {
		t.Fatalf("breakers section = %+v", h.Breakers)
	}
}

// /v1/report carries an Age header (whole seconds since publish) and the
// degraded flag in the body.
func TestReportAgeHeaderAndDegradedField(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	degraded := distrib.Encode(scan.Report{Strategy: "MaxMax", Degraded: true}, 3, 9)
	if err := srv.Publish(degraded, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if age := resp.Header.Get("Age"); age != "0" {
		t.Fatalf("Age header = %q, want \"0\" right after publish", age)
	}
	var rep distrib.ReportJSON
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatal("degraded flag lost on the wire")
	}
}

// An idle /v1/stream connection receives periodic heartbeat comments so
// clients and intermediaries can tell quiet from dead.
func TestStreamHeartbeat(t *testing.T) {
	srv := New(WithHeartbeat(20 * time.Millisecond))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Publish(sampleReport(1, 5), time.Millisecond); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	type line struct {
		s   string
		err error
	}
	lines := make(chan line, 16)
	go func() {
		r := bufio.NewReader(resp.Body)
		for {
			s, err := r.ReadString('\n')
			lines <- line{s, err}
			if err != nil {
				return
			}
		}
	}()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case l := <-lines:
			if l.err != nil {
				t.Fatalf("stream read: %v", l.err)
			}
			if strings.HasPrefix(l.s, ": heartbeat") {
				return // got one — that's the contract
			}
		case <-deadline:
			t.Fatal("no heartbeat within 5s on an idle stream")
		}
	}
}
