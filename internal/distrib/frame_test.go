package distrib

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// testReport builds a report with n ranked results, exercising the
// omitempty fields (maps, empty start tokens) the frame slicer must
// reproduce byte-exactly.
func testReport(version uint64, height int64, n int) ReportJSON {
	r := ReportJSON{
		Version:          version,
		Height:           height,
		Strategy:         "MaxMax",
		Parallelism:      2,
		Tokens:           7,
		Pools:            9,
		CyclesExamined:   40,
		LoopsDetected:    n,
		TopologyCacheHit: true,
		LoopsReoptimized: 3,
		LoopsReused:      n - 3,
	}
	for i := 0; i < n; i++ {
		res := ResultJSON{
			Index:     i,
			Loop:      fmt.Sprintf("A→B%d→C→A", i),
			Strategy:  "MaxMax",
			ProfitUSD: 100.0 / float64(i+1),
		}
		if i%2 == 0 {
			res.StartToken = "A"
			res.Input = float64(i) * 1.5
		} else {
			res.NetTokens = map[string]float64{"A": 1.25, "B": -0.5, "C": float64(i)}
		}
		r.Results = append(r.Results, res)
	}
	return r
}

func TestFrameRawMatchesMarshal(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		r := testReport(3, 17, n)
		if r.Results == nil {
			r.Results = []ResultJSON{} // Encode never produces nil
		}
		f, err := new(Store).Set(r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f.Raw, want) {
			t.Errorf("n=%d: frame Raw differs from json.Marshal:\n got %s\nwant %s", n, f.Raw, want)
		}
	}

	// nil Results normalizes to the empty array: the wire always carries
	// `"results":[]`, never null.
	f, err := new(Store).Set(testReport(3, 17, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(f.Raw, []byte(`"results":[]}`)) {
		t.Errorf("nil Results encoded as %s", f.Raw[max(0, len(f.Raw)-20):])
	}
}

func TestFrameTopPrefixEquivalence(t *testing.T) {
	r := testReport(9, 123, 6)
	f, err := new(Store).Set(r)
	if err != nil {
		t.Fatal(err)
	}
	var full ReportJSON
	if err := json.Unmarshal(f.Raw, &full); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{f.ETag: true}
	for n := 1; n < len(r.Results); n++ {
		prefix, tail, etag := f.Top(n)
		if tail == nil {
			t.Fatalf("top=%d returned the full body", n)
		}
		if seen[etag] {
			t.Errorf("top=%d reuses ETag %s", n, etag)
		}
		seen[etag] = true
		body := append(append([]byte{}, prefix...), tail...)
		var got ReportJSON
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("top=%d body is not valid JSON: %v\n%s", n, err, body)
		}
		want := full
		want.Results = full.Results[:n]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("top=%d decoded report differs from full-report prefix:\n got %+v\nwant %+v", n, got, want)
		}
	}
}

func TestFrameTopClamps(t *testing.T) {
	r := testReport(1, 2, 3)
	f, err := new(Store).Set(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -1, 3, 4, 100} {
		prefix, tail, etag := f.Top(n)
		if !bytes.Equal(prefix, f.Raw) || tail != nil || etag != f.ETag {
			t.Errorf("Top(%d) did not clamp to the full report", n)
		}
	}
}

func TestFrameGzipRoundTrip(t *testing.T) {
	f, err := new(Store).Set(testReport(4, 44, 4))
	if err != nil {
		t.Fatal(err)
	}
	gz, err := f.GzipBody()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := gunzip(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, f.Raw) {
		t.Error("gzip variant does not decompress to Raw")
	}
	if f.Gzip != nil {
		t.Error("the deprecated Gzip field is set")
	}
}

// gunzip decompresses one gzip stream.
func gunzip(gz []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

func TestFrameSSEFraming(t *testing.T) {
	f, err := new(Store).Set(testReport(7, 70, 2))
	if err != nil {
		t.Fatal(err)
	}
	s := string(f.SSE)
	wantPrefix := "id: 7\nevent: report\ndata: "
	if !strings.HasPrefix(s, wantPrefix) {
		t.Fatalf("SSE frame prefix = %q", s[:min(len(s), 40)])
	}
	if !strings.HasSuffix(s, "\n\n") {
		t.Error("SSE frame missing blank-line terminator")
	}
	data := strings.TrimSuffix(strings.TrimPrefix(s, wantPrefix), "\n\n")
	if data != string(f.Raw) {
		t.Error("SSE data line is not the raw report bytes")
	}
	if strings.Count(data, "\n") != 0 {
		t.Error("report JSON spilled over multiple SSE lines")
	}
	if f.EventID != "7" {
		t.Errorf("EventID = %q, want 7", f.EventID)
	}
}

func TestFrameETags(t *testing.T) {
	var st Store
	a, err := st.Set(testReport(1, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Set(testReport(2, 11, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.ETag == b.ETag {
		t.Error("different (version, height) frames share an ETag")
	}
	a2, err := st.Set(testReport(1, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.ETag != a2.ETag || !bytes.Equal(a.Raw, a2.Raw) {
		t.Error("republished identical (version, height) is not byte-identical")
	}
	if !strings.HasPrefix(a.ETag, `"`) || !strings.HasSuffix(a.ETag, `"`) {
		t.Errorf("ETag %s is not quoted", a.ETag)
	}
}

func TestETagMatches(t *testing.T) {
	const et = `"v1-h5"`
	cases := []struct {
		header string
		want   bool
	}{
		{`"v1-h5"`, true},
		{`"v1-h4"`, false},
		{`"v1-h4", "v1-h5"`, true},
		{`*`, true},
		{`W/"v1-h5"`, false}, // weak never strong-matches
		{``, false},
		{`v1-h5`, false}, // unquoted is not the validator we issued
		{`"v1-h5-t3"`, false},
	}
	for _, c := range cases {
		if got := ETagMatches(c.header, et); got != c.want {
			t.Errorf("ETagMatches(%q) = %v, want %v", c.header, got, c.want)
		}
	}
	if got := ETagMatches(`"v1-h5-t3"`, `"v1-h5-t3"`); !got {
		t.Error("top-N etag failed to match itself")
	}
	if n := testing.AllocsPerRun(100, func() {
		ETagMatches(`"v1-h4", W/"x", "v1-h5"`, et)
	}); n > 0 {
		t.Errorf("ETagMatches allocates %.0f times per call", n)
	}
}

func TestStoreSwap(t *testing.T) {
	var st Store
	if f := st.Frame(); f != nil {
		t.Error("empty store returned a frame")
	}
	f1, err := st.Set(testReport(1, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Frame(); got != f1 || got.Report.Version != 1 {
		t.Fatalf("Set did not publish its frame: got %p, want %p", got, f1)
	}
	var decoded ReportJSON
	if err := json.Unmarshal(f1.Raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Version != 1 || decoded.Height != 10 {
		t.Errorf("decoded = %+v", decoded)
	}
	f2, err := st.Set(testReport(2, 11, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Frame(); got != f2 {
		t.Error("Set did not swap the frame")
	}
}

// gzipFresh compresses raw with a new writer at the default level: the
// bytes a frame's GzipBody must equal although the store recycles its
// writer.
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

// checkWire asserts every representation of f against r, encoded from
// scratch: the marshal, a fresh compressor, the SSE framing and the
// fmt-built ETags.
func checkWire(t *testing.T, f *Frame, r ReportJSON) {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	n := len(r.Results)
	if !bytes.Equal(f.Raw, raw) {
		t.Errorf("n=%d: Raw differs from json.Marshal", n)
	}
	if cap(f.Raw) != len(f.Raw) {
		t.Errorf("n=%d: cap(Raw) = %d, len %d: an append could write into SSE", n, cap(f.Raw), len(f.Raw))
	}
	if gz, err := f.GzipBody(); err != nil || !bytes.Equal(gz, gzipFresh(t, raw)) {
		t.Errorf("n=%d: GzipBody differs from a fresh gzip.NewWriter's output (err %v)", n, err)
	}
	if want := fmt.Sprintf("id: %d\nevent: report\ndata: %s\n\n", r.Version, raw); string(f.SSE) != want {
		t.Errorf("n=%d: SSE = %q, want %q", n, f.SSE, want)
	}
	if want := fmt.Sprintf("\"v%d-h%d\"", r.Version, r.Height); f.ETag != want {
		t.Errorf("n=%d: ETag = %s, want %s", n, f.ETag, want)
	}
	if want := strconv.FormatUint(r.Version, 10); f.EventID != want {
		t.Errorf("n=%d: EventID = %s, want %s", n, f.EventID, want)
	}
	for k := 1; k < n; k++ {
		if _, _, etag := f.Top(k); etag != fmt.Sprintf("\"v%d-h%d-t%d\"", r.Version, r.Height, k) {
			t.Errorf("n=%d: Top(%d) ETag = %s", n, k, etag)
		}
	}
}

// TestStoreRecycledWriterWire pushes reports of several sizes, and one
// that cannot be encoded, through a single Store: every frame must carry
// the bytes a from-scratch encoding gives, and a later Set must not touch
// the bytes of a frame already returned.
func TestStoreRecycledWriterWire(t *testing.T) {
	var st Store
	var frames []*Frame
	var reports []ReportJSON
	for i, n := range []int{0, 1, 20, 200, 20} {
		r := testReport(uint64(i)*1_000_003, int64(i)*987_654_321, n)
		if r.Results == nil {
			r.Results = []ResultJSON{} // Encode never produces nil
		}
		f, err := st.Set(r)
		if err != nil {
			t.Fatal(err)
		}
		checkWire(t, f, r)
		frames, reports = append(frames, f), append(reports, r)

		// A report json.Marshal rejects fails Set and leaves the last
		// good frame published; the next Set is unaffected (checked on
		// the next pass).
		bad := testReport(7, 7, 3)
		bad.Results[2].ProfitUSD = math.NaN()
		if _, err := st.Set(bad); err == nil {
			t.Fatal("Set encoded a NaN profit")
		}
		if st.Frame() != f {
			t.Fatal("a failed Set replaced the published frame")
		}
	}
	for i, f := range frames {
		checkWire(t, f, reports[i])
	}
}

// TestStoreSetConcurrent hammers one Store's shared encoder, compressor
// and scratch buffers from several goroutines; run it under -race. Each
// returned frame must hold its own report, however the calls interleave.
func TestStoreSetConcurrent(t *testing.T) {
	const goroutines, sets = 8, 50
	var st Store
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sets; i++ {
				r := testReport(uint64(g*sets+i), int64(g), 3+(g*7+i)%20)
				f, err := st.Set(r)
				if err != nil {
					t.Error(err)
					return
				}
				gz, err := f.GzipBody()
				if err != nil {
					t.Error(err)
					return
				}
				plain, err := gunzip(gz)
				if err != nil {
					t.Error(err)
					return
				}
				want, err := json.Marshal(r)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(plain, f.Raw) || !bytes.Equal(f.Raw, want) {
					t.Errorf("goroutine %d set %d: frame bytes are not its own report's", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFrameGzipConcurrentReaders asks for the current frame's gzip body
// from several goroutines while another publishes; run it under -race.
// Readers compress different frames through the store's one compressor
// at once, and several race for one frame's first build: every body must
// gunzip to the Raw of the frame it came from.
func TestFrameGzipConcurrentReaders(t *testing.T) {
	const readers, sets = 8, 200
	var st Store
	if _, err := st.Set(testReport(0, 1, 5)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var done atomic.Bool
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for stop := false; !stop; {
				stop = done.Load() // every reader reads at least once
				f := st.Frame()
				gz, err := f.GzipBody()
				if err != nil {
					t.Error(err)
					return
				}
				plain, err := gunzip(gz)
				if err != nil || !bytes.Equal(plain, f.Raw) {
					t.Errorf("frame v%d: gzip body is not its Raw (err %v)", f.Report.Version, err)
					return
				}
			}
		}()
	}
	for i := 1; i <= sets; i++ {
		if _, err := st.Set(testReport(uint64(i), int64(i), 1+i%25)); err != nil {
			t.Error(err)
			break
		}
	}
	done.Store(true)
	wg.Wait()
	if n := st.GzipBuilds.Load(); n > sets+1 {
		t.Errorf("%d gzip builds for %d frames", n, sets+1)
	}
}
