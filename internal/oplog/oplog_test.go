package oplog

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"syscall"
	"testing"
	"time"

	"arbloop/internal/distrib"
	"arbloop/internal/faults"
)

// testEntry builds a recognizable entry for version v.
func testEntry(v uint64) Entry {
	return Entry{
		Version:    v,
		Height:     int64(100 + v),
		UnixNano:   int64(v) * 1_000,
		DirtyPools: []string{"P1", "P2"},
		Report: distrib.ReportJSON{
			Version:  v,
			Height:   int64(100 + v),
			Strategy: "ConvexOptimization",
			Results: []distrib.ResultJSON{
				{Index: 0, Loop: "A->B->C->A", ProfitUSD: float64(v) * 1.25},
			},
		},
	}
}

// appendAll opens a log in dir, appends entries 1..n, and closes it.
func appendAll(t *testing.T, dir string, n int, opt Options) {
	t.Helper()
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= n; v++ {
		if err := l.Append(testEntry(uint64(v))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// recovered replays dir and returns the recovered versions plus stats.
func recovered(t *testing.T, dir string) ([]uint64, ReplayStats) {
	t.Helper()
	var versions []uint64
	st, err := Replay(dir, func(e Entry) error {
		versions = append(versions, e.Version)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return versions, st
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, 5, Options{})

	var got []Entry
	st, err := Replay(dir, func(e Entry) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated {
		t.Fatalf("clean log reported truncated: %+v", st)
	}
	if len(got) != 5 {
		t.Fatalf("recovered %d entries, want 5", len(got))
	}
	for i, e := range got {
		want := testEntry(uint64(i + 1))
		if e.Version != want.Version || e.Height != want.Height {
			t.Fatalf("entry %d = v%d h%d, want v%d h%d", i, e.Version, e.Height, want.Version, want.Height)
		}
		if !slices.Equal(e.DirtyPools, want.DirtyPools) {
			t.Fatalf("entry %d dirty pools = %v, want %v", i, e.DirtyPools, want.DirtyPools)
		}
		if len(e.Report.Results) != 1 || e.Report.Results[0].Loop != "A->B->C->A" {
			t.Fatalf("entry %d report corrupted: %+v", i, e.Report)
		}
	}
}

// oldWarmPayload is an entry as serve wrote it while it still recorded
// each ranked loop's plan in a "warm" field. Written out as bytes, not
// encoded from Entry, so the test keeps guarding old logs whatever
// becomes of Entry's fields.
const oldWarmPayload = `{"version":7,"height":107,"unix_nano":7000,"dirty_pools":["P1","P2"],` +
	`"warm":[{"tokens":["A","B","C"],"inputs":[1.5,2.5,3.5]},{"tokens":["B","C","D"],"inputs":[0.25,0.5,0.75]}],` +
	`"report":{"version":7,"height":107,"strategy":"ConvexOptimization","parallelism":2,"tokens":4,"pools":5,` +
	`"cycles_examined":3,"loops_detected":2,"failed":0,"topology_cache_hit":true,"loops_reoptimized":1,` +
	`"loops_reused":1,"shards_scanned":1,"degraded":false,"results":[{"index":0,"loop":"A->B->C->A",` +
	`"strategy":"ConvexOptimization","profit_usd":8.75,"net_tokens":{"A":0.5}}]}}`

// TestOldWarmSegmentReplays: a segment holding an entry with the warm
// field replays, through Replay and Tail, with its version, height,
// dirty pools and report intact.
func TestOldWarmSegmentReplays(t *testing.T) {
	dir := t.TempDir()
	seg := appendRecord([]byte(segMagic), []byte(oldWarmPayload))
	if err := os.WriteFile(filepath.Join(dir, segmentName(0)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	want := distrib.ReportJSON{
		Version: 7, Height: 107, Strategy: "ConvexOptimization", Parallelism: 2,
		Tokens: 4, Pools: 5, CyclesExamined: 3, LoopsDetected: 2,
		TopologyCacheHit: true, LoopsReoptimized: 1, LoopsReused: 1, ShardsScanned: 1,
		Results: []distrib.ResultJSON{{
			Index: 0, Loop: "A->B->C->A", Strategy: "ConvexOptimization",
			ProfitUSD: 8.75, NetTokens: map[string]float64{"A": 0.5},
		}},
	}
	check := func(how string, entries []Entry, st ReplayStats) {
		t.Helper()
		if st.Truncated || st.Entries != 1 || len(entries) != 1 {
			t.Fatalf("%s: %d entries, stats %+v; want the one record, untruncated", how, len(entries), st)
		}
		e := entries[0]
		if e.Version != 7 || e.Height != 107 || e.UnixNano != 7000 {
			t.Errorf("%s: entry v%d h%d t%d, want v7 h107 t7000", how, e.Version, e.Height, e.UnixNano)
		}
		if !slices.Equal(e.DirtyPools, []string{"P1", "P2"}) {
			t.Errorf("%s: dirty pools %v, want [P1 P2]", how, e.DirtyPools)
		}
		if !reflect.DeepEqual(e.Report, want) {
			t.Errorf("%s: report\n%+v\nwant\n%+v", how, e.Report, want)
		}
	}

	var replayed []Entry
	st, err := Replay(dir, func(e Entry) error {
		replayed = append(replayed, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	check("Replay", replayed, st)
	tail, st, err := Tail(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	check("Tail", tail, st)
}

func TestReopenAppendsAfterExistingSegments(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, 3, Options{})
	appendAll(t, dir, 2, Options{})

	versions, st := recovered(t, dir)
	// The second Open starts a fresh segment, so versions restart at 1 —
	// what matters here is that nothing from the first run is lost and
	// order is by append time.
	want := []uint64{1, 2, 3, 1, 2}
	if len(versions) != len(want) {
		t.Fatalf("recovered %v, want %v", versions, want)
	}
	for i := range want {
		if versions[i] != want[i] {
			t.Fatalf("recovered %v, want %v", versions, want)
		}
	}
	if st.Segments < 2 {
		t.Fatalf("expected >= 2 segments after reopen, got %d", st.Segments)
	}
}

func TestSegmentRotationAndManifest(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every entry or two.
	appendAll(t, dir, 10, Options{SegmentBytes: 256, Sync: SyncPolicy{Mode: SyncAlways}})

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d (%v)", len(segs), segs)
	}
	m := readManifest(dir)
	if len(m) == 0 {
		t.Fatal("manifest missing after rotations")
	}
	versions, st := recovered(t, dir)
	if st.Truncated || len(versions) != 10 {
		t.Fatalf("recovered %d entries (truncated=%v), want 10 clean", len(versions), st.Truncated)
	}
	for i, v := range versions {
		if v != uint64(i+1) {
			t.Fatalf("out-of-order recovery: %v", versions)
		}
	}
}

func TestReplaySurvivesMissingManifest(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, 6, Options{SegmentBytes: 256})
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	versions, st := recovered(t, dir)
	if st.Truncated || len(versions) != 6 {
		t.Fatalf("dir-scan fallback recovered %d (truncated=%v), want 6", len(versions), st.Truncated)
	}
}

func TestTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, 4, Options{})
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatal("no segments", err)
	}
	last := filepath.Join(dir, segs[len(segs)-1])
	b, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	// Hard-cut mid-way through the final record.
	if err := os.WriteFile(last, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	versions, st := recovered(t, dir)
	if !st.Truncated {
		t.Fatal("cut log not reported truncated")
	}
	if len(versions) != 3 {
		t.Fatalf("recovered %v, want prefix [1 2 3]", versions)
	}

	// Corrupt a byte inside the last *valid* record's payload: the CRC
	// must reject it and recovery shrinks by one more entry.
	b, err = os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := -1
	for off := segHeaderSize; off < len(b); {
		_, n, derr := decodeRecord(b[off:])
		if derr != nil {
			break
		}
		lastStart = off
		off += n
	}
	if lastStart < 0 {
		t.Fatal("no valid record left to corrupt")
	}
	b[lastStart+frameHeaderSize+1] ^= 0xFF
	if err := os.WriteFile(last, b, 0o644); err != nil {
		t.Fatal(err)
	}
	versions, st = recovered(t, dir)
	if !st.Truncated || len(versions) != 2 {
		t.Fatalf("recovered %v (truncated=%v), want prefix [1 2]", versions, st.Truncated)
	}
}

func TestAppendedTailRecoversAfterGarbage(t *testing.T) {
	// Garbage appended *after* valid records must not hide them.
	dir := t.TempDir()
	appendAll(t, dir, 3, Options{})
	segs, _ := listSegments(dir)
	last := filepath.Join(dir, segs[len(segs)-1])
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	versions, st := recovered(t, dir)
	if !st.Truncated || len(versions) != 3 {
		t.Fatalf("recovered %v (truncated=%v), want [1 2 3] truncated", versions, st.Truncated)
	}
}

func TestWriteFaultDegradesInsteadOfBlocking(t *testing.T) {
	dir := t.TempDir()
	// Disk-full cliff after ~1.5 records' worth of bytes.
	inj := faults.NewFile(faults.FileSpec{FailAfterBytes: 700})
	opt := Options{
		Sync: SyncPolicy{Mode: SyncAlways},
		OpenFile: func(path string) (File, error) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
			if err != nil {
				return nil, err
			}
			return inj.Wrap(f), nil
		},
	}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 20; v++ {
		if err := l.Append(testEntry(uint64(v))); err != nil {
			t.Fatalf("Append must not error on a degraded log: %v", err)
		}
	}
	// The syncer hits ENOSPC quickly; degradation is asynchronous, so poll.
	deadline := time.Now().Add(5 * time.Second)
	for !l.Stats().Degraded {
		if time.Now().After(deadline) {
			t.Fatalf("log never degraded under ENOSPC; stats %+v", l.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := l.Stats()
	if st.LastError == "" {
		t.Fatal("degraded log carries no LastError")
	}
	closeErr := l.Close()
	if closeErr == nil || !errors.Is(closeErr, syscall.ENOSPC) {
		t.Fatalf("Close error = %v, want wrapped ENOSPC", closeErr)
	}
	if !errors.Is(closeErr, faults.ErrInjected) {
		t.Fatalf("Close error = %v, want wrapped faults.ErrInjected", closeErr)
	}
	// Post-ENOSPC appends after Close report ErrClosed.
	if err := l.Append(testEntry(99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}

	// Whatever made it to disk before the cliff replays as a clean prefix.
	versions, _ := recovered(t, dir)
	for i, v := range versions {
		if v != uint64(i+1) {
			t.Fatalf("recovered prefix out of order: %v", versions)
		}
	}
}

func TestSyncFaultDegrades(t *testing.T) {
	dir := t.TempDir()
	inj := faults.NewFile(faults.FileSpec{Seed: 7, SyncErrRate: 1})
	opt := Options{
		Sync: SyncPolicy{Mode: SyncEveryN, N: 1},
		OpenFile: func(path string) (File, error) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
			if err != nil {
				return nil, err
			}
			return inj.Wrap(f), nil
		},
	}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Append(testEntry(1))
	deadline := time.Now().Add(5 * time.Second)
	for !l.Stats().Degraded {
		if time.Now().After(deadline) {
			t.Fatalf("log never degraded under EIO sync faults; stats %+v", l.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := l.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close error = %v, want wrapped EIO", err)
	}
}

func TestTail(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, 7, Options{SegmentBytes: 256})
	entries, st, err := Tail(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 7 {
		t.Fatalf("tail pass saw %d entries, want 7", st.Entries)
	}
	if len(entries) != 3 {
		t.Fatalf("tail returned %d entries, want 3", len(entries))
	}
	for i, want := range []uint64{5, 6, 7} {
		if entries[i].Version != want {
			t.Fatalf("tail versions = %v, want [5 6 7]",
				[]uint64{entries[0].Version, entries[1].Version, entries[2].Version})
		}
	}
	// A tail longer than the log returns everything.
	all, _, err := Tail(dir, 100)
	if err != nil || len(all) != 7 {
		t.Fatalf("Tail(100) = %d entries, err %v; want 7", len(all), err)
	}
}

func TestQueueOverflowDropsNewestNotBlocks(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(block)
		}
	}()
	opt := Options{
		QueueDepth: 2,
		OpenFile: func(path string) (File, error) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
			if err != nil {
				return nil, err
			}
			return blockingFile{f: f, gate: block}, nil
		},
	}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The syncer is stuck in Write; the queue holds 2; everything else
	// must drop immediately rather than block this goroutine.
	done := make(chan struct{})
	go func() {
		for v := 1; v <= 10; v++ {
			_ = l.Append(testEntry(uint64(v)))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Append blocked on a stalled syncer")
	}
	if st := l.Stats(); st.Dropped == 0 {
		t.Fatalf("overflow not counted as drops: %+v", st)
	}
	released = true
	close(block)
	_ = l.Close()
}

// blockingFile stalls the first record write until gate closes (the
// header write passes through so Open succeeds).
type blockingFile struct {
	f    *os.File
	gate chan struct{}
}

func (b blockingFile) Write(p []byte) (int, error) {
	if len(p) != segHeaderSize {
		<-b.gate
	}
	return b.f.Write(p)
}
func (b blockingFile) Sync() error  { return b.f.Sync() }
func (b blockingFile) Close() error { return b.f.Close() }

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"", SyncPolicy{Mode: SyncInterval, Interval: time.Second}, true},
		{"always", SyncPolicy{Mode: SyncAlways}, true},
		{"every=8", SyncPolicy{Mode: SyncEveryN, N: 8}, true},
		{"interval=250ms", SyncPolicy{Mode: SyncInterval, Interval: 250 * time.Millisecond}, true},
		{"every=0", SyncPolicy{}, false},
		{"interval=-1s", SyncPolicy{}, false},
		{"sometimes", SyncPolicy{}, false},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if c.ok != (err == nil) {
			t.Fatalf("ParseSyncPolicy(%q) err = %v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && got != c.want {
			t.Fatalf("ParseSyncPolicy(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	// Round-trip through String.
	for _, s := range []string{"always", "every=4", "interval=2s"} {
		p, err := ParseSyncPolicy(s)
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != s {
			t.Fatalf("String() round-trip: %q -> %q", s, p.String())
		}
	}
}

func TestReplayStopSentinel(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, 5, Options{})
	n := 0
	st, err := Replay(dir, func(Entry) error {
		n++
		if n == 2 {
			return ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ErrStop surfaced as error: %v", err)
	}
	if n != 2 || st.Entries != 2 {
		t.Fatalf("replay delivered %d entries after ErrStop, want 2", n)
	}
}
