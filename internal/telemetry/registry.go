package telemetry

import (
	"bufio"
	"expvar"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds the process's registered metrics and renders them on
// demand: Prometheus text exposition for GET /v1/metrics, a flattened
// scalar map for the /v1/healthz telemetry section and expvar. The
// registry never touches metric state itself — every sample is read
// from the live atomics at exposition time (snapshot-on-read), so
// registration is the only side with any bookkeeping.
//
// Registration allocates and takes a lock; it belongs in construction
// paths (server startup, a topology capture), never the per-block hot
// path. Registering the same (family, labels) pair twice is a
// programming error — both samples would be exposed.
type Registry struct {
	mu      sync.Mutex
	entries []registryEntry
}

// registryEntry is one registered metric: a scalar (counter/gauge), a
// histogram, or a labeled collection walked at exposition time.
type registryEntry struct {
	family string // metric family name, e.g. arbloop_scans_total
	labels string // constant label pairs, e.g. `kind="delta"`, or ""
	help   string
	typ    string // "counter" | "gauge" | "histogram"

	counter  *Counter
	gauge    func() float64
	hist     *Histogram
	vec      func(emit func(labelValue string, v float64))
	vecLabel string // the vec's label key, e.g. "pool"
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// Counter registers a counter sample under family, with optional
// constant labels (raw `key="value"` pairs, comma-separated, or "").
func (r *Registry) Counter(family, labels, help string, c *Counter) {
	r.add(registryEntry{family: family, labels: labels, help: help, typ: "counter", counter: c})
}

// Gauge registers a gauge sampled by fn at exposition time. Any value a
// closure can compute — an atomic load, an EMA read, time since start —
// can back a gauge.
func (r *Registry) Gauge(family, labels, help string, fn func() float64) {
	r.add(registryEntry{family: family, labels: labels, help: help, typ: "gauge", gauge: fn})
}

// Histogram registers a histogram sample under family (name it with a
// _seconds suffix: buckets, sum, and bounds are exposed in seconds).
func (r *Registry) Histogram(family, labels, help string, h *Histogram) {
	r.add(registryEntry{family: family, labels: labels, help: help, typ: "histogram", hist: h})
}

// GaugeVec registers a labeled gauge family whose members are only
// known at exposition time (per-pool dirtiness rates). collect must call
// emit once per member with the label value and current value.
func (r *Registry) GaugeVec(family, labelKey, help string, collect func(emit func(labelValue string, v float64))) {
	r.add(registryEntry{family: family, help: help, typ: "gauge", vec: collect, vecLabel: labelKey})
}

func (r *Registry) add(e registryEntry) {
	r.mu.Lock()
	r.entries = append(r.entries, e)
	r.mu.Unlock()
}

// snapshotEntries copies the entry list out so exposition never holds
// the registration lock while calling collectors.
func (r *Registry) snapshotEntries() []registryEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]registryEntry, len(r.entries))
	copy(out, r.entries)
	return out
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4): one # HELP and # TYPE header per
// family, samples grouped under it, histograms as cumulative
// _bucket/_sum/_count series in seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	entries := r.snapshotEntries()

	// Group samples by family in first-registration order so multiple
	// label sets of one family (stage="orient", stage="prices") share a
	// single HELP/TYPE header, as the format requires.
	seen := make(map[string]bool, len(entries))
	for i := range entries {
		head := &entries[i]
		if seen[head.family] {
			continue
		}
		seen[head.family] = true
		fmt.Fprintf(bw, "# HELP %s %s\n", head.family, head.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", head.family, head.typ)
		for j := i; j < len(entries); j++ {
			if e := &entries[j]; e.family == head.family {
				writeEntry(bw, e)
			}
		}
	}
	return bw.Flush()
}

func writeEntry(bw *bufio.Writer, e *registryEntry) {
	switch {
	case e.counter != nil:
		writeSample(bw, e.family, e.labels, float64(e.counter.Load()))
	case e.gauge != nil:
		writeSample(bw, e.family, e.labels, e.gauge())
	case e.vec != nil:
		e.vec(func(labelValue string, v float64) {
			writeSample(bw, e.family, e.vecLabel+"="+strconv.Quote(labelValue), v)
		})
	case e.hist != nil:
		s := e.hist.Snapshot()
		var cum uint64
		for i, c := range s.Buckets {
			cum += c
			le := "+Inf"
			if i < NumBuckets-1 {
				le = formatValue(float64(uint64(1)<<uint(i)) / float64(time.Second))
			}
			labels := `le="` + le + `"`
			if e.labels != "" {
				labels = e.labels + "," + labels
			}
			writeSample(bw, e.family+"_bucket", labels, float64(cum))
		}
		writeSample(bw, e.family+"_sum", e.labels, float64(s.SumNanos)/float64(time.Second))
		writeSample(bw, e.family+"_count", e.labels, float64(cum))
	}
}

func writeSample(bw *bufio.Writer, name, labels string, v float64) {
	bw.WriteString(name)
	if labels != "" {
		bw.WriteByte('{')
		bw.WriteString(labels)
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(formatValue(v))
	bw.WriteByte('\n')
}

// Summary flattens the registry's scalar state into a map: counters and
// gauges keyed by their sample name (labels included), histograms
// contributing _count and _sum (seconds). Labeled collections (vecs)
// are skipped — they can be unboundedly wide (one entry per pool), and
// Summary feeds compact surfaces: the /v1/healthz telemetry section and
// expvar. Use WritePrometheus for the complete view.
func (r *Registry) Summary() map[string]float64 {
	entries := r.snapshotEntries()
	out := make(map[string]float64, len(entries))
	key := func(family, labels string) string {
		if labels == "" {
			return family
		}
		return family + "{" + labels + "}"
	}
	for i := range entries {
		e := &entries[i]
		switch {
		case e.counter != nil:
			out[key(e.family, e.labels)] = float64(e.counter.Load())
		case e.gauge != nil:
			out[key(e.family, e.labels)] = e.gauge()
		case e.hist != nil:
			s := e.hist.Snapshot()
			out[key(e.family+"_count", e.labels)] = float64(s.Count())
			out[key(e.family+"_sum", e.labels)] = float64(s.SumNanos) / float64(time.Second)
		}
	}
	return out
}

// expvarReg is the registry expvar renders; a pointer swap so repeated
// PublishExpvar calls (service restarts within one process, tests)
// re-point the single published var instead of panicking on a duplicate
// expvar name.
var (
	expvarReg  atomic.Pointer[Registry]
	expvarOnce sync.Once
	// ExpvarName is the key the registry summary is published under on
	// the expvar listener's /debug/vars.
	ExpvarName = "arbloop_metrics"
)

// PublishExpvar exposes this registry's Summary under ExpvarName in the
// process-wide expvar namespace (served by the -pprof listener's
// /debug/vars). Safe to call repeatedly: later calls swap which
// registry backs the published variable.
func (r *Registry) PublishExpvar() {
	expvarReg.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish(ExpvarName, expvar.Func(func() any {
			if reg := expvarReg.Load(); reg != nil {
				return reg.Summary()
			}
			return nil
		}))
	})
}
