package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"

	"arbloop/internal/distrib"
)

// chunked frames body as an HTTP/1.1 chunked response whose chunk
// boundaries fall every size bytes — across field lines and events.
func chunked(body string, size int) string {
	var b strings.Builder
	b.WriteString("HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nTransfer-Encoding: chunked\r\n\r\n")
	for len(body) > 0 {
		n := min(size, len(body))
		fmt.Fprintf(&b, "%x\r\n%s\r\n", n, body[:n])
		body = body[n:]
	}
	b.WriteString("0\r\n\r\n")
	return b.String()
}

func TestSSEParserChunkedFraming(t *testing.T) {
	// The priming report has no "height" (omitempty on zero); neither the
	// parser nor the report decoder may require it.
	stream := "id: 1\nevent: report\ndata: {\"version\":1,\"strategy\":\"MaxMax\",\"parallelism\":2,\"tokens\":3,\"pools\":3,\"cycles_examined\":1,\"loops_detected\":1,\"failed\":0,\"topology_cache_hit\":false,\"loops_reoptimized\":1,\"loops_reused\":0,\"shards_scanned\":1,\"degraded\":false,\"results\":[]}\n\n" +
		": heartbeat\n\n" +
		"id: 2\r\nevent: report\r\ndata: {\"version\":2,\"height\":7,\"strategy\":\"MaxMax\",\"parallelism\":2,\"tokens\":3,\"pools\":3,\"cycles_examined\":1,\"loops_detected\":1,\"failed\":0,\"topology_cache_hit\":true,\"loops_reoptimized\":0,\"loops_reused\":1,\"shards_scanned\":0,\"degraded\":false,\"results\":[]}\r\n\r\n"
	for _, size := range []int{1, 2, 7, 64, len(stream)} {
		req, _ := http.NewRequest(http.MethodGet, "http://perfbench/v1/stream", nil)
		resp, err := http.ReadResponse(bufio.NewReader(strings.NewReader(chunked(stream, size))), req)
		if err != nil {
			t.Fatalf("chunk %d: %v", size, err)
		}
		var p sseParser
		var got []string
		buf := make([]byte, 3) // short reads split every chunk again
		for {
			n, err := resp.Body.Read(buf)
			if ferr := p.Feed(buf[:n], func(ev sseEvent) error {
				rep, derr := decodeReport(ev.data)
				if derr != nil {
					return derr
				}
				got = append(got, fmt.Sprintf("%s/%s/v%d/h%d", ev.id, ev.event, rep.Version, rep.Height))
				return nil
			}); ferr != nil {
				t.Fatalf("chunk %d: %v", size, ferr)
			}
			if err != nil {
				break
			}
		}
		if want := "1/report/v1/h0 2/report/v2/h7"; strings.Join(got, " ") != want {
			t.Errorf("chunk %d: events %v, want %s", size, got, want)
		}
	}
}

func TestSSEParserMultiLineData(t *testing.T) {
	var p sseParser
	var got []string
	err := p.Feed([]byte("data: a\ndata: b\n\nevent: x\n\n"), func(ev sseEvent) error {
		got = append(got, ev.event+":"+string(ev.data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// An event without a data field is not dispatched.
	if len(got) != 1 || got[0] != "message:a\nb" {
		t.Errorf("got %q", got)
	}
}

func TestDecodeReportRejectsUnknownFields(t *testing.T) {
	if _, err := decodeReport([]byte(`{"version":3,"surprise":1,"results":[]}`)); err == nil {
		t.Error("a report with an unknown field decoded")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed: percentile sorts
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false}, // only 9 samples beyond
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d q=%g: got (%g, %v), want (%g, %v)", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, err := mustPercentile("b2b", seq(999), 0.99); err == nil {
		t.Error("mustPercentile accepted a p99 of 999 samples")
	}
}

func TestBlockToByteAttributesCoalescedBlocks(t *testing.T) {
	due := func(h int64) int64 { return h * 1000 }
	// Blocks 3 and 4 coalesced into the report of height 5; block 7 has
	// no report by the end of the run.
	events := []clientEvent{
		{version: 1, height: 0, read: 10},
		{version: 2, height: 2, read: 2300},
		{version: 3, height: 5, read: 5600},
		{version: 4, height: 6, read: 6400},
	}
	lat, covered, failed := blockToByte(events, 2, 7, due)
	if want := []int{1, 2, 2, 2, 3, -1}; fmt.Sprint(covered) != fmt.Sprint(want) {
		t.Errorf("covered %v, want %v", covered, want)
	}
	// Each block is timed from its own due time to the covering read.
	if want := []int64{300, 2600, 1600, 600, 400}; fmt.Sprint(lat) != fmt.Sprint(want) {
		t.Errorf("latencies %v, want %v", lat, want)
	}
	if failed != 1 {
		t.Errorf("failed %d, want 1", failed)
	}
}

// TestDueTimeVersusWriteTime pins the two timing rules: a block is timed
// from when it was due, so generator lateness counts against it, while a
// read is timed from its write, so the reader's lateness does not (it is
// reported on its own).
func TestDueTimeVersusWriteTime(t *testing.T) {
	// Block 1 was due at 1000, sealed late, and read at 2000.
	lat, _, _ := blockToByte([]clientEvent{{version: 2, height: 1, read: 2000}}, 1, 1, func(h int64) int64 { return h * 1000 })
	if len(lat) != 1 || lat[0] != 1000 {
		t.Errorf("block latency %v, want [1000]", lat)
	}
	// Window blocks 2..3 of a 1000 ns schedule: reads due in (1000, 3000].
	// The read due at 1500 went out 500 late and took 40 from its write.
	m := &measurement{first: 2, last: 3, interval: 1000, reads: []readSample{
		{due: 900, lat: 1, ok: true}, // warm-up
		{due: 1500, lat: 40, late: 500, ok: true},
		{due: 2500, late: 20, ok: false},
		{due: 3100, lat: 1, ok: true}, // drain
	}}
	r := windowReads(m)
	if fmt.Sprint(r.lat, r.late, r.tried, r.failed) != "[40] [500 20] 2 1" {
		t.Errorf("window reads %v %v tried %d failed %d, want [40] [500 20] 2 1", r.lat, r.late, r.tried, r.failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3, ok := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !ok || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3, _ := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("two values: %g %g %g, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestCompareHandlesZero(t *testing.T) {
	zeros := []float64{0, 0, 0, 0}
	for _, c := range []struct {
		name        string
		base, next  []float64
		lowerBetter bool
		bound       float64
		text        string
		regression  bool
	}{
		{"both zero", zeros, zeros, true, 0.1, "same (both zero)", false},
		{"away from zero, lower better", zeros, []float64{0, 1, 1, 1}, true, 0.1, "worse (from zero)", true},
		{"away from zero, higher better", zeros, []float64{1, 1, 2, 2}, false, 0.1, "better (from zero)", false},
		{"away from zero, no bound", zeros, []float64{3, 3}, true, -1, "worse (from zero)", false},
		{"to zero, lower better", []float64{2, 2, 2}, zeros, true, 0.1, "better", false},
		{"to zero, higher better", []float64{2, 2, 2}, zeros, false, 0.1, "WORSE", true},
		{"within bound", []float64{10, 10, 10}, []float64{10.5, 10.5, 10.5}, true, 0.1, "same", false},
		{"beyond bound", []float64{10, 10, 10}, []float64{12, 12, 12}, true, 0.1, "WORSE", true},
		{"spread above bound", []float64{5, 10, 15, 20}, []float64{12, 12, 12}, true, 0.1, "unresolved (spread above bound)", false},
	} {
		v := judge(c.base, c.next, c.lowerBetter, c.bound)
		if v.text != c.text || v.regression != c.regression {
			t.Errorf("%s: verdict %q (regression %v), want %q (%v)", c.name, v.text, v.regression, c.text, c.regression)
		}
		if math.IsInf(v.change, 0) {
			t.Errorf("%s: infinite change", c.name)
		}
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	a := savedRun{file: "a", rec: runRecord{Host: hostShape{NumCPU: 2, GOMAXPROCS: 2}}}
	b := savedRun{file: "b", rec: runRecord{Host: hostShape{NumCPU: 8, GOMAXPROCS: 8}}}
	if err := sameHost([]savedRun{a, a}); err != nil {
		t.Errorf("same host refused: %v", err)
	}
	if err := sameHost([]savedRun{a, b}); err == nil {
		t.Error("different host shapes accepted")
	}
}

func TestSavedRunRoundTrip(t *testing.T) {
	var out bytes.Buffer
	rec, err := json.Marshal(runRecord{Workload: "steady", Seed: 3, Seconds: 20, Host: probeHost()})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "%s%s\n", runPrefix, rec)
	res := result{Correct: true, Attempted: 10}
	values := make(map[string]float64)
	for i, d := range endToEndMetrics {
		values[d.name] = float64(i) + 0.5
	}
	if err := setMetrics(&res, endToEndMetrics, values); err != nil {
		t.Fatal(err)
	}
	if err := printResult(&out, res); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/run.txt"
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := parseRun(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.rec.Seed != 3 || r.res.Attempted != 10 || r.res.Metrics["setup_s"].Value != 0.5 {
		t.Errorf("parsed %+v", r)
	}
}

func TestConvexAgreement(t *testing.T) {
	wire := func(profits ...float64) []distrib.ResultJSON {
		out := make([]distrib.ResultJSON, len(profits))
		for i, p := range profits {
			out[i] = distrib.ResultJSON{Index: int(p), Loop: fmt.Sprint(int(p)), ProfitUSD: p}
		}
		return out
	}
	fresh := wire(100, 50, 50.00000001)
	fresh[1].Index, fresh[2].Index = 2, 3
	// Warm-started: a 1e-7 relative gap, and the near-tied ranks 2 and 3
	// in the other order.
	served := []distrib.ResultJSON{fresh[0], fresh[2], fresh[1]}
	served[0].ProfitUSD = 100.00001
	if msg := convexAgree(served, fresh, convexRelTol); msg != "" {
		t.Errorf("agreeing reports rejected: %s", msg)
	}
	served[0].ProfitUSD = 100.01
	if msg := convexAgree(served, fresh, convexRelTol); msg == "" {
		t.Error("a 1e-4 relative profit gap was accepted")
	}
	if !relClose(0, 0, convexRelTol) || relClose(0, 1, convexRelTol) {
		t.Error("relClose mishandles zero")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the harness's metric table and the
// benchmark definition in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	def, err := loadBenchDef("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("benchmark definition: %v", err)
	}
	check := func(what string, defs []metricDef, ms []benchMetric) {
		if len(defs) != len(ms) {
			t.Errorf("%s: harness has %d metrics, BENCHMARK.json %d", what, len(defs), len(ms))
		}
		byName := make(map[string]benchMetric, len(ms))
		for _, m := range ms {
			byName[m.Name] = m
		}
		for _, d := range defs {
			if m, ok := byName[d.name]; !ok {
				t.Errorf("%s: %s missing from BENCHMARK.json", what, d.name)
			} else if m.Unit != d.unit {
				t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", what, d.name, d.unit, m.Unit)
			}
		}
	}
	check("end_to_end", endToEndMetrics, def.EndToEnd)
	check("per_layer", perLayerMetrics, def.PerLayer)
}
