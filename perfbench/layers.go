package main

import (
	"fmt"
	"os"
	"sort"

	"arbloop/internal/telemetry"
)

// versionSpans gathers one feed version's recorded spans.
type versionSpans struct {
	refresh, pools, scanRun, prices, encode, publish, appendS *span
	read                                                      int64 // client read instant, 0 when unread
}

// attribute assigns each child span (pools inside a refresh, prices
// inside a scan) to the first parent span that ended no earlier than it:
// parents of one kind run one at a time, so that parent contains it.
func attribute(children, parents []*span) {
	sort.Slice(parents, func(i, j int) bool { return parents[i].end < parents[j].end })
	for _, c := range children {
		k := sort.Search(len(parents), func(k int) bool { return parents[k].end >= c.end })
		if k < len(parents) {
			c.trace, c.height = parents[k].trace, parents[k].height
		}
	}
}

// layerMetrics computes the per-layer metrics of a traced window from
// its spans and counter snapshots, and returns every span — recorded and
// derived — for the dump.
func layerMetrics(p *pipeline, m *measurement, w windowStats, recorded []span) (map[string]float64, []span) {
	spans := append([]span(nil), recorded...)
	byKind := make([][]int, numKinds)
	for i, s := range spans {
		byKind[s.kind] = append(byKind[s.kind], i)
	}
	ptrs := func(k spanKind) []*span {
		out := make([]*span, 0, len(byKind[k]))
		for _, i := range byKind[k] {
			out = append(out, &spans[i])
		}
		return out
	}
	// Children carry no trace when recorded; give them their parent's.
	for _, pair := range [][2]spanKind{{kindPools, kindRefresh}, {kindPrices, kindScanRun}} {
		attribute(ptrs(pair[0]), ptrs(pair[1]))
	}

	versions := make(map[uint64]*versionSpans)
	vs := func(v uint64) *versionSpans {
		x := versions[v]
		if x == nil {
			x = &versionSpans{}
			versions[v] = x
		}
		return x
	}
	genBlock := make(map[int64]*span)
	genTimer := make(map[int64]*span)
	for i := range spans {
		s := &spans[i]
		switch s.kind {
		case kindRefresh:
			vs(s.trace).refresh = s
		case kindPools:
			vs(s.trace).pools = s
		case kindScanRun:
			vs(s.trace).scanRun = s
		case kindPrices:
			vs(s.trace).prices = s
		case kindEncode:
			vs(s.trace).encode = s
		case kindPublish:
			vs(s.trace).publish = s
		case kindAppend:
			vs(s.trace).appendS = s
		case kindGenBlock:
			genBlock[s.height] = s
		case kindGenTimer:
			genTimer[s.height] = s
		}
	}
	events := p.client.events
	for _, e := range events {
		vs(e.version).read = e.read
	}
	inWindow := func(h int64) bool { return h >= m.first && h <= m.last }

	// ownVersion[h] is the first version whose refresh stamped height h:
	// the report of block h's own, when one was published.
	ownVersion := make(map[int64]uint64)
	published := make(map[int64]bool)
	for v, x := range versions {
		if x.refresh == nil {
			continue
		}
		h := x.refresh.height
		if cur, ok := ownVersion[h]; !ok || v < cur {
			ownVersion[h] = v
		}
	}
	for _, r := range p.tr.reports {
		published[r.height] = true
	}

	// Derived spans go to their own slice: appending to spans would move
	// the array the pointers above point into.
	var derived []span
	var (
		lateness, pools, prices, wake, refreshSelf           []int64
		scanWait, scanRun, encode, publish, transit, appendD []int64
		unattributed                                         []int64
	)
	for v, x := range versions {
		if x.refresh == nil || !inWindow(x.refresh.height) {
			continue
		}
		h := x.refresh.height
		if x.pools != nil {
			pools = append(pools, x.pools.dur())
			refreshSelf = append(refreshSelf, x.refresh.dur()-x.pools.dur())
		}
		if g := genBlock[h]; g != nil && ownVersion[h] == v {
			wake = append(wake, x.refresh.start-g.end)
			derived = append(derived, span{trace: v, height: h, start: g.end, end: x.refresh.start, kind: kindFeedWake})
		}
		if x.scanRun == nil {
			continue // coalesced: the scanner never saw this version
		}
		scanRun = append(scanRun, x.scanRun.dur())
		scanWait = append(scanWait, x.scanRun.start-x.refresh.end)
		derived = append(derived, span{trace: v, height: h, start: x.refresh.end, end: x.scanRun.start, kind: kindScanWait})
		if x.prices != nil {
			prices = append(prices, x.prices.dur())
		}
		if x.encode != nil {
			encode = append(encode, x.encode.dur())
		}
		if x.appendS != nil {
			appendD = append(appendD, x.appendS.dur())
		}
		if x.publish == nil {
			continue
		}
		publish = append(publish, x.publish.dur())
		if x.read == 0 {
			continue // the stream client was handed a newer frame
		}
		transit = append(transit, x.read-x.publish.end)
		derived = append(derived,
			span{trace: v, height: h, start: x.publish.end, end: x.read, kind: kindTransit},
			span{trace: v, height: h, start: x.read, end: x.read, kind: kindClientRead})
		// The block's own path: its spans tile due → read up to the
		// instants between the harness's consecutive clock reads.
		if g := genBlock[h]; g != nil && ownVersion[h] == v && x.encode != nil {
			b2b := x.read - m.due(h)
			tiled := g.dur() + (x.refresh.start - g.end) + x.refresh.dur() + (x.scanRun.start - x.refresh.end) +
				x.scanRun.dur() + x.encode.dur() + x.publish.dur() + (x.read - x.publish.end)
			unattributed = append(unattributed, b2b-tiled)
		}
	}
	// Every window block: its covering version is its trace, and its root
	// span runs from due to that version's read.
	coalesced := 0
	for i, h := 0, m.first; h <= m.last; i, h = i+1, h+1 {
		if !published[h] {
			coalesced++
		}
		if t := genTimer[h]; t != nil {
			lateness = append(lateness, t.dur())
		}
		if w.covered[i] < 0 {
			continue
		}
		e := events[w.covered[i]]
		for _, s := range []*span{genBlock[h], genTimer[h]} {
			if s != nil {
				s.trace = e.version
			}
		}
		derived = append(derived, span{trace: e.version, height: h, start: m.due(h), end: e.read, kind: kindBlock})
	}

	var reopt, reused, shards int
	var frames, gzips []int64
	for _, r := range p.tr.reports {
		if !inWindow(r.height) {
			continue
		}
		reopt += r.reoptimized
		reused += r.reused
		shards += r.shard
		frames = append(frames, int64(r.frameBytes))
		gzips = append(gzips, int64(r.gzipBytes))
	}
	var writes, syncs []int64
	for _, i := range byKind[kindOplogWrite] {
		if s := spans[i]; s.start >= m.before.at && s.start <= m.after.at {
			writes = append(writes, s.dur())
		}
	}
	for _, i := range byKind[kindOplogSync] {
		if s := spans[i]; s.start >= m.before.at && s.start <= m.after.at {
			syncs = append(syncs, s.dur())
		}
	}

	n := float64(w.blocks)
	b, a := m.before, m.after
	solves := float64(a.solves - b.solves)
	warmTried := float64(a.warmHits - b.warmHits + a.warmMisses - b.warmMisses)
	values := map[string]float64{
		"gen.lateness_p50_ms":                    layerPct("gen.lateness_p50_ms", lateness, 1e6, 0.5),
		"gen.lateness_p99_ms":                    layerPct("gen.lateness_p99_ms", lateness, 1e6, 0.99),
		"gen.read_lateness_p99_ms":               layerPct("gen.read_lateness_p99_ms", w.reads.late, 1e6, 0.99),
		"source.pools_us_p50":                    layerPct("source.pools_us_p50", pools, 1e3, 0.5),
		"source.prices_us_p50":                   layerPct("source.prices_us_p50", prices, 1e3, 0.5),
		"feed.wake_us_p50":                       layerPct("feed.wake_us_p50", wake, 1e3, 0.5),
		"feed.refresh_self_us_p50":               layerPct("feed.refresh_self_us_p50", refreshSelf, 1e3, 0.5),
		"feed.coalesced_ratio":                   float64(coalesced) / n,
		"scan.wait_us_p50":                       layerPct("scan.wait_us_p50", scanWait, 1e3, 0.5),
		"scan.run_us_p50":                        layerPct("scan.run_us_p50", scanRun, 1e3, 0.5),
		"scan.run_us_p99":                        layerPct("scan.run_us_p99", scanRun, 1e3, 0.99),
		"scan.stage_orient_us_mean":              stageMeanUS(b.stages[0], a.stages[0]),
		"scan.stage_prices_us_mean":              stageMeanUS(b.stages[1], a.stages[1]),
		"scan.stage_optimize_us_mean":            stageMeanUS(b.stages[2], a.stages[2]),
		"scan.stage_commit_us_mean":              stageMeanUS(b.stages[3], a.stages[3]),
		"scan.loops_reoptimized_per_block":       float64(reopt) / n,
		"scan.reuse_ratio":                       ratio(float64(reused), float64(reopt+reused)),
		"scan.shards_scanned_per_block":          float64(shards) / n,
		"scan.full_captures":                     float64(a.delta.FullScans - b.delta.FullScans),
		"strategy.convex_solves_per_block":       solves / n,
		"strategy.convex_fallback_ratio":         ratio(float64(a.fallbacks-b.fallbacks), solves),
		"strategy.convex_warm_hit_ratio":         ratio(float64(a.warmHits-b.warmHits), warmTried),
		"strategy.convex_newton_iters_per_solve": ratio(float64(a.newton-b.newton), solves),
		"distrib.encode_us_p50":                  layerPct("distrib.encode_us_p50", encode, 1e3, 0.5),
		"distrib.frame_bytes":                    layerPct("distrib.frame_bytes", frames, 1, 0.5),
		"distrib.gzip_bytes":                     layerPct("distrib.gzip_bytes", gzips, 1, 0.5),
		"server.publish_us_p50":                  layerPct("server.publish_us_p50", publish, 1e3, 0.5),
		"server.publish_us_p99":                  layerPct("server.publish_us_p99", publish, 1e3, 0.99),
		"server.sse_transit_us_p50":              layerPct("server.sse_transit_us_p50", transit, 1e3, 0.5),
		"server.read_p99_us":                     layerPct("server.read_p99_us", w.reads.lat, 1e3, 0.99),
		"oplog.bytes_per_block":                  float64(a.oplogBytes-b.oplogBytes) / n,
		"oplog.dropped":                          float64(a.oplog.Dropped - b.oplog.Dropped),
		"runtime.alloc_kb_per_block":             float64(a.totalAlloc-b.totalAlloc) / 1024 / n,
		"runtime.gc_per_1k_blocks":               float64(a.numGC-b.numGC) * 1000 / n,
		"trace.unattributed_us_p50":              layerPct("trace.unattributed_us_p50", unattributed, 1e3, 0.5),
	}
	// With the oplog off there is nothing to time: the metrics read 0.
	values["oplog.append_us_p50"], values["oplog.write_us_p50"], values["oplog.sync_ms_p50"] = 0, 0, 0
	if p.olog != nil {
		values["oplog.append_us_p50"] = layerPct("oplog.append_us_p50", appendD, 1e3, 0.5)
		values["oplog.write_us_p50"] = layerPct("oplog.write_us_p50", writes, 1e3, 0.5)
		values["oplog.sync_ms_p50"] = layerPct("oplog.sync_ms_p50", syncs, 1e6, 0.5)
	}
	all := append(spans, derived...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].start < all[j].start })
	return values, all
}

// layerPct is a per-layer percentile: a layer with too few samples for
// the rule still reports its estimate, with a warning on stderr.
func layerPct(name string, samples []int64, per float64, q float64) float64 {
	v, ok := percentile(toUnit(samples, per), q)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %s from %d samples (fewer than %d beyond p%g)\n",
			name, len(samples), minTail, q*100)
	}
	return v
}

// stageMeanUS is the mean of a stage histogram's observations between
// two snapshots, in µs.
func stageMeanUS(before, after telemetry.HistogramSnapshot) float64 {
	var count uint64
	for i := range after.Buckets {
		count += after.Buckets[i] - before.Buckets[i]
	}
	if count == 0 {
		return 0
	}
	return float64(after.SumNanos-before.SumNanos) / float64(count) / 1e3
}
