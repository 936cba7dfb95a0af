package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"arbloop/internal/distrib"
	"arbloop/internal/oplog"
)

// TestHealthzOplogSection covers the oplog probe: absent without a
// registration, present with one, and a degraded log flips the overall
// status to degraded while the server keeps serving.
func TestHealthzOplogSection(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Publish(distrib.ReportJSON{Version: 1}, time.Millisecond); err != nil {
		t.Fatal(err)
	}

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
	if h.Oplog != nil {
		t.Fatalf("oplog section present without a probe: %+v", h.Oplog)
	}
	if h.Status != "ok" {
		t.Fatalf("baseline status = %q", h.Status)
	}

	stats := oplog.Stats{Appended: 10, Written: 9, Syncs: 3, Segments: 1}
	srv.SetOplogStatsProbe(func() oplog.Stats { return stats })
	get()
	if h.Oplog == nil || h.Oplog.Written != 9 {
		t.Fatalf("oplog section = %+v, want written 9", h.Oplog)
	}
	if h.Status != "ok" {
		t.Errorf("healthy oplog degraded status: %q", h.Status)
	}

	stats.Degraded = true
	stats.LastError = "oplog: injected fault: write: no space left on device"
	get()
	if h.Status != "degraded" {
		t.Errorf("status = %q with degraded oplog, want degraded", h.Status)
	}
	if h.Oplog == nil || !h.Oplog.Degraded || h.Oplog.LastError == "" {
		t.Errorf("oplog section = %+v, want degraded with last_error", h.Oplog)
	}

	srv.SetOplogStatsProbe(nil)
	get()
	if h.Oplog != nil {
		t.Errorf("oplog section survived unregistering: %+v", h.Oplog)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q after unregistering, want ok", h.Status)
	}
}
