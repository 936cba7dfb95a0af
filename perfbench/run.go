package main

import (
	"fmt"
	"os"
	"time"
)

// runConfig is one invocation's workload, seed and window length.
type runConfig struct {
	wl      workload
	seed    int64
	seconds int
}

// setupRuns is how many times an end-to-end run builds the stack from
// scratch; setup_s is the median, and the last stack is measured.
const setupRuns = 21

// windowStats is what one measured window yields for the end-to-end
// metrics and the output checks.
type windowStats struct {
	blocks       int64
	b2b          []int64 // per covered block: due → covering report read, ns
	covered      []int   // per block: client event index, -1 when uncovered
	failedBlocks int
	reads        windowRead
	problems     checkLog
	verified     int
}

// windowRead is the reads that were due inside the timed window.
type windowRead struct {
	lat           []int64 // reads that passed their checks: write → full response, ns
	late          []int64 // every read: send − due, ns
	tried, failed int
}

// windowReads selects the reads due after the warm-up and no later than
// the last timed block.
func windowReads(m *measurement) windowRead {
	var w windowRead
	lo, hi := m.due(m.first-1), m.due(m.last)
	for _, r := range m.reads {
		if r.due <= lo || r.due > hi {
			continue
		}
		w.tried++
		w.late = append(w.late, r.late)
		if r.ok {
			w.lat = append(w.lat, r.lat)
		} else {
			w.failed++
		}
	}
	return w
}

// analyze computes the window's block and read figures and gathers
// every output-check failure of the pipeline. Call it after close: the
// client and loops own their records until they stop.
func (p *pipeline) analyze(m *measurement) windowStats {
	var w windowStats
	w.blocks = m.last - m.first + 1
	w.b2b, w.covered, w.failedBlocks = blockToByte(p.client.events, m.first, m.last, m.due)
	w.reads = windowReads(m)
	for _, l := range []checkLog{p.client.checks, p.feedChecks, p.scanChecks, m.readChecks} {
		w.problems.n += l.n
		w.problems.msgs = append(w.problems.msgs, l.msgs...)
	}
	if p.httpErr != nil {
		w.problems.failf("http server: %v", p.httpErr)
	}
	verified, vlog := p.verify()
	w.verified = verified
	w.problems.n += vlog.n
	w.problems.msgs = append(w.problems.msgs, vlog.msgs...)
	return w
}

// report prints the window's check outcome to stderr.
func (w *windowStats) report(label string) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d blocks (%d uncovered), %d reads (%d failed), %d versions verified, %d check failures\n",
		label, w.blocks, w.failedBlocks, w.reads.tried, w.reads.failed, w.verified, w.problems.n)
	for _, msg := range w.problems.msgs {
		fmt.Fprintf(os.Stderr, "perfbench:   %s\n", msg)
	}
}

// measureAndClose measures one window on p, tears p down and analyzes
// the window.
func measureAndClose(p *pipeline, seconds int) (*measurement, windowStats, error) {
	m, err := p.measure(seconds)
	if cerr := p.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, windowStats{}, err
	}
	return m, p.analyze(m), nil
}

// runEndToEnd is a --trace 0 run: setupRuns fresh stacks for setup_s,
// then one untraced window on the last of them.
func runEndToEnd(cfg runConfig) (result, error) {
	clk := clock{base: time.Now()}
	blocks := blocksFor(cfg.wl, cfg.seconds)
	setups := make([]float64, 0, setupRuns)
	var p *pipeline
	for i := 0; i < setupRuns; i++ {
		var err error
		if p, err = newPipeline(cfg.wl, cfg.seed, clk, nil, blocks); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Duration(p.setup).Seconds())
		if i < setupRuns-1 {
			if err := p.close(); err != nil {
				return result{}, err
			}
		}
	}
	m, w, err := measureAndClose(p, cfg.seconds)
	if err != nil {
		return result{}, err
	}
	w.report(cfg.wl.name)

	values := map[string]float64{
		"setup_s":          median(setups),
		"cpu_ms_per_block": m.cpuPerBlockMS(),
		"peak_rss_mb":      m.peakRSSMB,
	}
	for _, q := range []struct {
		name    string
		samples []int64
		per     float64
		q       float64
	}{
		{"block_to_byte_p50_ms", w.b2b, 1e6, 0.50},
		{"block_to_byte_p90_ms", w.b2b, 1e6, 0.90},
		{"report_read_p50_us", w.reads.lat, 1e3, 0.50},
	} {
		v, err := mustPercentile(q.name, toUnit(q.samples, q.per), q.q)
		if err != nil {
			return result{}, err
		}
		values[q.name] = v
	}
	res := result{
		Correct:   w.problems.n == 0,
		Attempted: int(w.blocks) + w.reads.tried,
		Failed:    w.failedBlocks + w.reads.failed,
	}
	return res, setMetrics(&res, endToEndMetrics, values)
}

// cpuPerBlockMS is the process CPU time per block of each block segment
// of the window, in ms, and the median across segments.
func (m *measurement) cpuPerBlockMS() float64 {
	segs := segments(int(m.last - m.first + 1))
	per := make([]float64, len(segs))
	for k, s := range segs {
		per[k] = float64(m.cpuMarks[k+1]-m.cpuMarks[k]) / 1e6 / float64(s[1]-s[0])
	}
	return median(per)
}

// runTraced is a --trace 1 run: one window twice the end-to-end length,
// whose block segments alternate traced and untraced. The per-layer
// metrics come from the traced segments. trace.overhead_pct compares the
// block-to-byte medians of the two halves: measured side by side in one
// window, the comparison is free of the drift between separate windows,
// which on the shared host this was built on (5-15% at the median) is
// larger than the overhead itself.
func runTraced(cfg runConfig, traceOut string) (result, error) {
	clk := clock{base: time.Now()}
	seconds := 2 * cfg.seconds
	tr := newTracer(clk, blocksFor(cfg.wl, seconds))
	p, err := newPipeline(cfg.wl, cfg.seed, clk, tr, blocksFor(cfg.wl, seconds))
	if err != nil {
		return result{}, err
	}
	m, w, err := measureAndClose(p, seconds)
	if err != nil {
		return result{}, err
	}
	w.report(cfg.wl.name + " (traced)")
	spans, dropped := tr.recorded()
	if dropped > 0 {
		return result{}, fmt.Errorf("span buffer overflowed by %d spans", dropped)
	}
	values, all := layerMetrics(p, m, w, spans)
	var on, off []float64
	for i, h := 0, m.first; h <= m.last; i, h = i+1, h+1 {
		if j := w.covered[i]; j >= 0 {
			lat := float64(p.client.events[j].read - m.due(h))
			if m.tracedSegment(h) {
				on = append(on, lat)
			} else {
				off = append(off, lat)
			}
		}
	}
	onP50, _ := percentile(on, 0.5)
	offP50, _ := percentile(off, 0.5)
	values["trace.overhead_pct"] = 100 * (ratio(onP50, offP50) - 1)
	if err := writeSpans(traceOut, all); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(all), traceOut)
	res := result{
		Correct:   w.problems.n == 0,
		Attempted: int(w.blocks) + w.reads.tried,
		Failed:    w.failedBlocks + w.reads.failed,
	}
	return res, setMetrics(&res, perLayerMetrics, values)
}
