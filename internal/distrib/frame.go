// Package distrib is the report-distribution tier: everything between
// the scan loop and a client-facing byte. At publish time Store.Set
// commits one Frame per block — the report encoded exactly once into
// every representation the HTTP layer serves on every read (raw JSON,
// pre-framed SSE event bytes, top-K prefix slices, strong ETags) — and
// swaps it behind an atomic pointer. Set encodes with one append encoder
// (marshal.go) into a reused buffer, so a publish allocates the frame's
// own bytes and little else. The gzip body is built only when a reader
// first asks for it, once per frame, through the store's one recycled
// compressor: most frames are replaced before anyone wants them
// compressed. Steady-state reads are a pointer load, a header compare,
// and a buffer write: no JSON marshaling, no per-client formatting, and
// at most one compression per frame, which is what lets one process hold
// the paper's block-interval budget while serving millions of readers.
// The conn.go side of the package guards the sockets themselves: accept
// limiting, connection gauges, and fd-headroom probing.
package distrib

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"arbloop/internal/telemetry"
)

// frameTail closes a prefix-sliced report body: every `?top=N` response
// is Raw[:ends[N-1]] followed by these two bytes. Results being the last
// ReportJSON field is what makes the tail constant.
var frameTail = []byte("]}")

// Frame is one block's report committed to every wire representation at
// once. Frames are immutable once Store.Set returns them, except for the
// gzip body, which GzipBody builds once, on first demand: handlers share
// slices of the same backing arrays across unbounded concurrent readers.
type Frame struct {
	// Report is the decoded view (healthz, logging, embedders).
	Report ReportJSON
	// Raw is the full report as compact JSON, byte-identical to
	// json.Marshal(Report) except that a nil Report.Results encodes as
	// [] where json.Marshal writes null. It is the data line inside SSE,
	// capped at its own length.
	Raw []byte
	// Gzip is always nil.
	//
	// Deprecated: call GzipBody, which compresses Raw on first demand.
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

	// store compresses Raw for GzipBody, under gzOnce.
	store  *Store
	gzOnce sync.Once
	gz     []byte
	gzErr  error
}

// GzipBody returns Raw gzip-compressed at the default level, the bytes a
// fresh gzip.NewWriter gives. The first call compresses, through the
// store's one recycled compressor; every later call, from any goroutine,
// returns the same slice, so a frame is compressed at most once and only
// if some reader asks.
func (f *Frame) GzipBody() ([]byte, error) {
	f.gzOnce.Do(func() { f.gz, f.gzErr = f.store.compress(f.Raw) })
	return f.gz, f.gzErr
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

	// GzipBuilds counts the gzip bodies built, at most one per frame and
	// only for frames a reader asked to have compressed.
	GzipBuilds telemetry.Counter

	// mu serializes Set, which reuses the encoder and the buffers below
	// for every block.
	mu   sync.Mutex
	enc  reportEncoder
	sse  []byte // the SSE event being encoded
	tags []byte // the frame's ETags, back to back

	// zmu serializes compress, apart from Set: a reader compressing an
	// older frame never holds up a publish. A fresh gzip.NewWriter would
	// allocate ~800 kB of flate state per body.
	zmu sync.Mutex
	zw  *gzip.Writer // writes into gz
	gz  bytes.Buffer // the gzip stream being written
}

// Set encodes r into a new frame, publishes it in place of the previous
// one, and returns it. The one encoding per block happens here and
// nowhere else; compression waits for the frame's first gzip reader
// (Frame.GzipBody). On error the previous frame stays published.
func (s *Store) Set(r ReportJSON) (*Frame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := &Frame{Report: r, ends: make([]int, len(r.Results)), etags: make([]string, len(r.Results)), store: s}

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
	// compact JSON, so one line carries it), recording each result's
	// end as it goes, and the finished event is copied once into the
	// frame.
	b := append(s.sse[:0], "id: "...)
	b = append(b, f.EventID...)
	b = append(b, "\nevent: report\ndata: "...)
	start := len(b)
	b, err := s.enc.appendReport(b, &f.Report, f.ends)
	s.sse = b
	if err != nil {
		return nil, fmt.Errorf("distrib: encode report: %w", err)
	}
	end := len(b)
	s.sse = append(b, "\n\n"...)
	f.SSE = bytes.Clone(s.sse)
	f.Raw = f.SSE[start:end:end]

	s.v.Store(f)
	return f, nil
}

// compress gzips raw through the store's one compressor. Reset rather
// than rebuilt, it keeps the default level, so the bytes equal a fresh
// gzip.NewWriter's.
func (s *Store) compress(raw []byte) ([]byte, error) {
	s.zmu.Lock()
	defer s.zmu.Unlock()
	if s.zw == nil {
		s.zw = gzip.NewWriter(&s.gz)
	}
	s.gz.Reset()
	s.zw.Reset(&s.gz)
	if _, err := s.zw.Write(raw); err != nil {
		return nil, fmt.Errorf("distrib: gzip report: %w", err)
	}
	if err := s.zw.Close(); err != nil {
		return nil, fmt.Errorf("distrib: gzip report: %w", err)
	}
	s.GzipBuilds.Inc()
	return bytes.Clone(s.gz.Bytes()), nil
}

// Frame returns the current frame, or nil before the first Set.
// Per-request read path: one atomic load, no allocation (checked by
// arblint's hotpath analyzer).
//
//arblint:hotpath
func (s *Store) Frame() *Frame {
	return s.v.Load()
}
