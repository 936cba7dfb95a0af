// Package distrib is the report-distribution tier: everything between
// the scan loop and a client-facing byte. At publish time Store.Set
// commits one immutable Frame per block — the report encoded exactly once
// into every representation the HTTP layer serves (raw JSON, pre-gzipped
// JSON, pre-framed SSE event bytes, top-K prefix slices, strong ETags) —
// and swaps it behind an atomic pointer. Set reuses one gzip compressor
// and its scratch buffers across blocks, so a publish allocates the
// frame's own bytes and little else. Steady-state reads are a pointer
// load, a header compare, and a buffer write: no JSON marshaling, no
// compression, no per-client formatting, which is what lets one process
// hold the paper's block-interval budget while serving millions of
// readers. The conn.go side of the package guards the sockets themselves:
// accept limiting, connection gauges, and fd-headroom probing.
package distrib

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// frameTail closes a prefix-sliced report body: every `?top=N` response
// is Raw[:ends[N-1]] followed by these two bytes. Results being the last
// ReportJSON field is what makes the tail constant.
var frameTail = []byte("]}")

// Frame is one block's report committed to every wire representation at
// once. Frames are immutable once Store.Set returns them: handlers share
// slices of the same backing arrays across unbounded concurrent readers.
type Frame struct {
	// Report is the decoded view (healthz, logging, embedders).
	Report ReportJSON
	// Raw is the full report as compact JSON, byte-identical to
	// json.Marshal(Report). It is the data line inside SSE, capped at its
	// own length.
	Raw []byte
	// Gzip is Raw compressed once at build time; served verbatim to
	// clients that accept gzip.
	Gzip []byte
	// ETag is the strong validator for the full representation, quoted
	// per RFC 9110 (derived from version+height: a republished identical
	// (version, height) is byte-identical by construction).
	ETag string
	// SSE is the pre-framed `report` event: `id:`/`event:`/`data:` lines
	// plus the blank terminator, written verbatim to every stream
	// subscriber. The id is the feed version, so clients resume with
	// Last-Event-ID after a reconnect.
	SSE []byte
	// EventID is the SSE id line's value (the decimal feed version).
	EventID string

	// ends[i] is the offset in Raw just past the encoded Results[i];
	// etags[i] validates the top=(i+1) representation.
	ends  []int
	etags []string
}

// Results returns how many ranked results the frame carries.
func (f *Frame) Results() int { return len(f.ends) }

// Top returns the body of the top-n representation as a prefix of Raw
// plus a constant tail (write both, in order), with the representation's
// ETag. n <= 0 or n >= Results() selects the full report (tail nil,
// single write). No bytes are copied: this is the `?top=N` re-slice.
// Per-request read path; allocation-free (checked by arblint's hotpath
// analyzer).
//
//arblint:hotpath
func (f *Frame) Top(n int) (prefix, tail []byte, etag string) {
	if n <= 0 || n >= len(f.ends) {
		return f.Raw, nil, f.ETag
	}
	return f.Raw[:f.ends[n-1]], frameTail, f.etags[n-1]
}

// ETagMatches reports whether an If-None-Match header value revalidates
// etag: an exact strong match in its comma-separated list, or `*`.
// Allocation-free (steady-state 304s ride the hot path; checked by
// arblint's hotpath analyzer).
//
//arblint:hotpath
func ETagMatches(header, etag string) bool {
	for len(header) > 0 {
		// Trim leading whitespace and commas.
		i := 0
		for i < len(header) && (header[i] == ' ' || header[i] == '\t' || header[i] == ',') {
			i++
		}
		header = header[i:]
		if header == "" {
			return false
		}
		if header[0] == '*' {
			return true
		}
		// A weak validator (W/"…") never strong-matches.
		weak := len(header) >= 2 && header[0] == 'W' && header[1] == '/'
		if weak {
			header = header[2:]
		}
		end := len(header)
		if len(header) > 0 && header[0] == '"' {
			if j := strings.IndexByte(header[1:], '"'); j >= 0 {
				end = j + 2
			}
		} else if j := strings.IndexByte(header, ','); j >= 0 {
			end = j
		}
		if !weak && header[:end] == etag {
			return true
		}
		header = header[end:]
	}
	return false
}

// Store holds the latest frame behind an atomic pointer. Set builds each
// block's frame once; reads are a single atomic load, safe for unbounded
// concurrency. The zero value is ready.
type Store struct {
	v atomic.Pointer[Frame]

	// mu serializes Set, which reuses one compressor and the scratch
	// buffers below for every block; a fresh gzip.NewWriter would
	// allocate ~800 kB of flate state per block.
	mu   sync.Mutex
	zw   *gzip.Writer  // writes into gz
	enc  *json.Encoder // writes into sse
	sse  bytes.Buffer  // the SSE event being encoded
	gz   bytes.Buffer  // the gzip stream being written
	tags []byte        // the frame's ETags, back to back
}

// Set encodes r into a new frame, publishes it in place of the previous
// one, and returns it. The one marshal and one gzip pass per block
// happen here and nowhere else. The compressor is Reset rather than
// rebuilt, which keeps the default level and makes Gzip byte-identical
// to a fresh gzip.NewWriter's output.
func (s *Store) Set(r ReportJSON) (*Frame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.enc == nil {
		s.enc = json.NewEncoder(&s.sse)
		s.zw = gzip.NewWriter(&s.gz)
	}
	f := &Frame{Report: r, ends: make([]int, len(r.Results)), etags: make([]string, len(r.Results))}

	// The full ETag `"v<version>-h<height>"` and the `"v…-h…-t<n>"` tag of
	// each top-n prefix are appended into one string that every tag
	// slices; the event id is the version digits inside it.
	t := append(s.tags[:0], `"v`...)
	t = strconv.AppendUint(t, r.Version, 10)
	idEnd := len(t)
	t = append(t, "-h"...)
	t = strconv.AppendInt(t, r.Height, 10)
	stem := len(t)
	t = append(t, '"')
	for i := range r.Results {
		t = append(t, t[:stem]...)
		t = append(t, "-t"...)
		t = strconv.AppendInt(t, int64(i+1), 10)
		t = append(t, '"')
	}
	s.tags = t
	tags := string(t)
	f.ETag, f.EventID = tags[:stem+1], tags[2:idEnd]
	rest := tags[stem+1:]
	for i := range f.etags {
		// Each tag runs from its opening quote through the next quote.
		n := strings.IndexByte(rest[1:], '"') + 2
		f.etags[i], rest = rest[:n], rest[n:]
	}

	// The report is encoded as the data line of the SSE event (Raw is
	// compact JSON, so one line carries it), and the finished event is
	// copied once into the frame. Encode the head (every field before
	// Results) once, then append each result and record its boundary.
	// Element-wise encoding concatenated inside the head's `"results":[`
	// is byte-identical to marshaling the whole struct (an Encoder
	// escapes HTML as json.Marshal does), so the recorded offsets are
	// exact.
	s.sse.Reset()
	s.sse.WriteString("id: ")
	s.sse.WriteString(f.EventID)
	s.sse.WriteString("\nevent: report\ndata: ")
	start := s.sse.Len()
	head := r
	head.Results = []ResultJSON{}
	if err := s.enc.Encode(&head); err != nil {
		return nil, fmt.Errorf("distrib: encode report: %w", err)
	}
	// Encode ends each value with '\n'. Strip it and the head's `]}`, so
	// the buffer ends at `[`.
	s.sse.Truncate(s.sse.Len() - len(frameTail) - 1)
	for i := range r.Results {
		if i > 0 {
			s.sse.WriteByte(',')
		}
		if err := s.enc.Encode(&r.Results[i]); err != nil {
			return nil, fmt.Errorf("distrib: encode result %d: %w", i, err)
		}
		s.sse.Truncate(s.sse.Len() - 1)
		f.ends[i] = s.sse.Len() - start
	}
	s.sse.Write(frameTail)
	end := s.sse.Len()
	s.sse.WriteString("\n\n")
	f.SSE = bytes.Clone(s.sse.Bytes())
	f.Raw = f.SSE[start:end:end]

	s.gz.Reset()
	s.zw.Reset(&s.gz)
	if _, err := s.zw.Write(f.Raw); err != nil {
		return nil, fmt.Errorf("distrib: gzip report: %w", err)
	}
	if err := s.zw.Close(); err != nil {
		return nil, fmt.Errorf("distrib: gzip report: %w", err)
	}
	f.Gzip = bytes.Clone(s.gz.Bytes())

	s.v.Store(f)
	return f, nil
}

// Frame returns the current frame, or nil before the first Set.
// Per-request read path: one atomic load, no allocation (checked by
// arblint's hotpath analyzer).
//
//arblint:hotpath
func (s *Store) Frame() *Frame {
	return s.v.Load()
}
