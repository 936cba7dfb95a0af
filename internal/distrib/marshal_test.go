package distrib

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// edgeFloats are where encoding/json's float format changes or breaks:
// the signed zeros, the subnormals, the 1e-6 and 1e21 cutoffs (nudged to
// either side by fuzzInput.float), the extremes, and the values it rejects.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // the largest subnormal
	1e-6, 1e21, 1, 292.7956274846285, math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// fuzzInput hands out the values a fuzzed report is built from. Each
// draw reads a selector byte first; past the end of the input every
// byte reads 0, which selects the fuzzed float or string, so a seed of
// just a float and a string already fills a report with them.
type fuzzInput struct {
	data []byte
	x    float64
	s    string
}

func (p *fuzzInput) byte() byte {
	if len(p.data) == 0 {
		return 0
	}
	c := p.data[0]
	p.data = p.data[1:]
	return c
}

func (p *fuzzInput) uint64() uint64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(p.byte())
	}
	return v
}

// int is 0, a small signed value or a full 64-bit one.
func (p *fuzzInput) int() int64 {
	switch p.byte() % 3 {
	case 0:
		return 0
	case 1:
		return int64(int8(p.byte()))
	}
	return int64(p.uint64())
}

// float is the fuzzed float, a float from raw bits, or an edge value
// nudged by up to three ulps either way, possibly negated.
func (p *fuzzInput) float() float64 {
	switch p.byte() % 3 {
	case 0:
		return p.x
	case 1:
		return math.Float64frombits(p.uint64())
	}
	f := edgeFloats[int(p.byte())%len(edgeFloats)]
	steps := int(int8(p.byte()))
	dir := math.Inf(1)
	if steps < 0 {
		dir, steps = math.Inf(-1), -steps
	}
	for range steps % 4 {
		f = math.Nextafter(f, dir)
	}
	if p.byte()&1 == 1 {
		f = -f
	}
	return f
}

// string is the fuzzed string, up to 15 raw input bytes, empty, or a
// plain token name.
func (p *fuzzInput) string() string {
	switch p.byte() % 4 {
	case 0:
		return p.s
	case 1:
		n := min(int(p.byte()%16), len(p.data))
		s := string(p.data[:n])
		p.data = p.data[n:]
		return s
	case 2:
		return ""
	}
	return "DAI"
}

// counts maps a selector byte to a number of results or net_tokens keys;
// -1 is nil and 0 empty.
var counts = [7]int{3, -1, 0, 1, 2, 4, 5}

func (p *fuzzInput) report() ReportJSON {
	r := ReportJSON{
		Version:          uint64(p.int()),
		Height:           p.int(),
		Strategy:         p.string(),
		Parallelism:      int(p.int()),
		Tokens:           int(p.int()),
		Pools:            int(p.int()),
		CyclesExamined:   int(p.int()),
		LoopsDetected:    int(p.int()),
		Failed:           int(p.int()),
		TopologyCacheHit: p.byte()&1 == 1,
		LoopsReoptimized: int(p.int()),
		LoopsReused:      int(p.int()),
		ShardsScanned:    int(p.int()),
		Degraded:         p.byte()&1 == 1,
	}
	n := counts[p.byte()%7]
	if n >= 0 {
		r.Results = make([]ResultJSON, n)
	}
	for i := range r.Results {
		res := &r.Results[i]
		res.Index = int(p.int())
		res.Loop, res.Strategy, res.StartToken = p.string(), p.string(), p.string()
		res.Input, res.ProfitUSD = p.float(), p.float()
		if k := counts[p.byte()%7]; k >= 0 {
			res.NetTokens = make(map[string]float64, k)
			for range k {
				res.NetTokens[p.string()] = p.float()
			}
		}
	}
	return r
}

// FuzzFrameMatchesMarshal holds the frame's append encoder to
// encoding/json on fuzzed reports: floats from raw bits and at the
// format's edges, strings of arbitrary bytes (invalid UTF-8, HTML
// characters, U+2028 and U+2029, control bytes, quotes and
// backslashes), and net_tokens maps of 0 to 5 keys, the empty key
// among them. Raw must equal json.Marshal, each Top(n) prefix plus its
// tail must equal json.Marshal of the report cut to n results, and a
// report json.Marshal rejects must fail Set and leave the previous frame
// published.
func FuzzFrameMatchesMarshal(f *testing.F) {
	strs := []string{
		"", "A→B→C→A", `<script>&"\`, string(rune(0x2028)) + "x" + string(rune(0x2029)),
		string([]byte{0xff, 'a', 0xe2, 0x80, 'b', 0xc0, 0xaf}), string([]byte{0, 0x1f, '\b', '\f', '\n', '\r', '\t', 0x7f}),
	}
	for i, x := range edgeFloats {
		for _, sign := range []float64{1, -1} {
			f.Add(math.Float64bits(sign*x), strs[i%len(strs)], []byte(nil))
		}
	}
	for _, x := range []float64{1e-6, 1e21} {
		f.Add(math.Float64bits(math.Nextafter(x, 0)), "", []byte(nil))
	}
	// Per string, the first input of a fixed-seed random search whose
	// report has at least two results, one with a map of four or more
	// keys: the seeds then also sort keys and slice prefixes.
	rng := rand.New(rand.NewPCG(1, 2))
	for _, s := range strs {
		for {
			data := make([]byte, 160)
			for i := range data {
				data[i] = byte(rng.Uint32())
			}
			in := fuzzInput{data: data, x: 0.1, s: s}
			r := in.report()
			if len(r.Results) >= 2 && slices.ContainsFunc(r.Results, func(res ResultJSON) bool { return len(res.NetTokens) >= 4 }) {
				f.Add(math.Float64bits(0.1), s, data)
				break
			}
		}
	}
	f.Fuzz(func(t *testing.T, bits uint64, s string, data []byte) {
		in := fuzzInput{data: data, x: math.Float64frombits(bits), s: s}
		r := in.report()
		var st Store
		good, err := st.Set(testReport(1, 2, 3))
		if err != nil {
			t.Fatal(err)
		}
		marshal := func(r ReportJSON) ([]byte, error) {
			if r.Results == nil {
				r.Results = []ResultJSON{} // Set encodes nil as []
			}
			return json.Marshal(r)
		}
		want, merr := marshal(r)
		fr, err := st.Set(r)
		if merr != nil {
			if err == nil {
				t.Fatalf("Set encoded a report json.Marshal rejects (%v):\n%s", merr, fr.Raw)
			}
			if st.Frame() != good {
				t.Fatal("a failed Set replaced the published frame")
			}
			return
		}
		if err != nil {
			t.Fatalf("Set: %v; json.Marshal gives %s", err, want)
		}
		if !bytes.Equal(fr.Raw, want) {
			t.Fatalf("Raw differs from json.Marshal:\n got %s\nwant %s", fr.Raw, want)
		}
		if sse := fmt.Sprintf("id: %d\nevent: report\ndata: %s\n\n", r.Version, want); string(fr.SSE) != sse {
			t.Fatalf("SSE = %q, want %q", fr.SSE, sse)
		}
		for n := 1; n < len(r.Results); n++ {
			cut := r
			cut.Results = r.Results[:n]
			want, err := json.Marshal(cut)
			if err != nil {
				t.Fatal(err)
			}
			prefix, tail, _ := fr.Top(n)
			if got := append(bytes.Clone(prefix), tail...); !bytes.Equal(got, want) {
				t.Fatalf("Top(%d) differs from json.Marshal of the first %d results:\n got %s\nwant %s", n, n, got, want)
			}
		}
	})
}
