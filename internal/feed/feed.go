// Package feed turns any source.PoolSource into a versioned, subscribable
// stream of pool-set updates — the input side of the live opportunity
// service. The paper's §VII framing makes the block interval the budget
// every downstream stage must fit inside, so the feed is built around two
// rules:
//
//   - Every update carries a monotonically increasing Version and a
//     topology fingerprint, so consumers can tell "reserves moved"
//     (re-optimize) apart from "pools appeared or vanished" (re-enumerate)
//     and can discard out-of-order work.
//   - Fan-out coalesces: a subscriber that falls behind sees the *latest*
//     update, never a backlog. Serving a stale intermediate block is worse
//     than serving none — plans computed from it are already dead.
//
// A Watcher is driven two ways, usually together: Notify, the edge-style
// trigger wired to a block hook (chain.State.OnBlock), and a polling
// interval for sources with no push channel. Both funnel into Run, which
// serializes reads of the source.
package feed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"arbloop/internal/amm"
	"arbloop/internal/scan"
	"arbloop/internal/source"
	"arbloop/internal/telemetry"
)

// Feed errors.
var (
	// ErrClosed is returned by Refresh after Close.
	ErrClosed = errors.New("feed: watcher closed")
	// ErrQuarantined wraps each poisoned pool rejected at the feed
	// boundary (NaN/±Inf/non-positive reserves, invalid fee, duplicate
	// pool ID). Delivered per pool to the WithErrorHandler callback; the
	// underlying amm validation error is also in the chain.
	ErrQuarantined = errors.New("feed: pool quarantined")
	// ErrNoValidPools fails a refresh whose every pool was quarantined —
	// publishing an empty update would tear down every loop downstream
	// for what is really a poisoned source.
	ErrNoValidPools = errors.New("feed: no valid pools after quarantine")
)

// SendCoalesce delivers v on a one-buffered channel with latest-wins
// semantics: when the buffer is full the stale value is evicted and v
// takes its place; if a concurrent sender wins the freed slot it holds a
// value at least as new, so dropping v is correct. Both the pool feed
// and the SSE fan-out (internal/server) coalesce through this one
// implementation.
func SendCoalesce[T any](ch chan T, v T) {
	select {
	case ch <- v:
	default:
		select {
		case <-ch:
		default:
		}
		select {
		case ch <- v:
		default:
		}
	}
}

// Update is one versioned view of the pool set.
type Update struct {
	// Version increases by one per update, starting at 1. Consumers that
	// process updates concurrently use it to drop stale results.
	Version uint64
	// Height is the source's block height when a height probe is
	// configured (WithHeightProbe); 0 otherwise.
	Height int64
	// Pools is the point-in-time pool set in canonical order
	// (scan.Canonicalize: by pool ID). The slice and pools are owned by
	// the consumers collectively; treat them as read-only.
	Pools []*amm.Pool
	// Fingerprint is the topology fingerprint of Pools (scan.Fingerprint).
	Fingerprint string
	// TopologyChanged reports whether this update's fingerprint differs
	// from the previous update's (true for the first update): pools,
	// tokens, or fees were added, removed, or altered — not just reserves.
	TopologyChanged bool
	// ChangedPools lists, sorted, the IDs of pools whose reserves differ
	// from the previous update — the dirty set a delta scan re-optimizes
	// around. It is nil when the dirty set is unknown (the first update,
	// or any topology change) and non-nil-but-empty when nothing moved.
	// Consumers that skip updates (coalescing) must not union consecutive
	// sets themselves; scan.Delta.Scan re-diffs reserves against its own
	// baseline, so a stale set can never corrupt a delta scan.
	ChangedPools []string
}

// Option configures a Watcher.
type Option func(*Watcher)

// WithHeightProbe attaches a block-height reader stamped onto every
// update (chain.State.Height fits directly).
func WithHeightProbe(height func() int64) Option {
	return func(w *Watcher) { w.height = height }
}

// DefaultRetryAttempts and DefaultRetryBackoff tune Run's handling of a
// failed source read: each trigger gets up to 3 attempts, backing off
// 100 ms then 200 ms between them, before the failure is considered
// fatal. One flaky poll must not tear down every subscriber.
const (
	DefaultRetryAttempts = 3
	DefaultRetryBackoff  = 100 * time.Millisecond
)

// WithRetry bounds Run's per-trigger retries: up to attempts source reads
// (≥ 1), doubling the backoff between consecutive failures starting from
// backoff. attempts 1 restores fail-fast; backoff ≤ 0 retries
// immediately.
func WithRetry(attempts int, backoff time.Duration) Option {
	return func(w *Watcher) {
		if attempts >= 1 {
			w.retryAttempts = attempts
		}
		w.retryBackoff = backoff
	}
}

// RetryJitterFrac is the symmetric fraction by which each retry backoff
// is randomly perturbed: a nominal backoff d sleeps for a uniform draw in
// [0.8d, 1.2d). Without it, every watcher replica that saw the same
// upstream outage retries on the same schedule and the recovering source
// takes the whole herd at once.
const RetryJitterFrac = 0.2

// WithRetryJitter replaces the watcher's jitter source with rng —
// deterministic retry schedules for tests. The default (nil) draws from
// the shared math/rand source.
func WithRetryJitter(rng *rand.Rand) Option {
	return func(w *Watcher) { w.jitterRand = rng }
}

// WithRefreshTimeout bounds the source read inside each Refresh: a hung
// Pools() call is cancelled after d and counted as a failed attempt
// instead of wedging the feed (and everything subscribed to it) forever.
// 0 (the default) disables the deadline.
func WithRefreshTimeout(d time.Duration) Option {
	return func(w *Watcher) { w.refreshTimeout = d }
}

// FailureMode selects what Run does when a trigger's whole retry budget
// is spent.
type FailureMode int

const (
	// FailStop (default) returns the final error from Run, closing the
	// watcher and every subscription — the pre-existing behavior, right
	// for batch pipelines where a dead feed should fail the job.
	FailStop FailureMode = iota
	// FailDegrade keeps Run alive: the exhausted trigger is counted
	// (Stats.Exhausted, ConsecutiveFailures) and reported through the
	// error handler, subscriptions stay open serving the last good
	// update, and the loop waits for the next trigger. Serving tiers use
	// this so a flaky upstream degrades visibly (healthz goes
	// degraded/stale) instead of tearing the process down.
	FailDegrade
)

// WithFailureMode selects Run's exhausted-retry policy.
func WithFailureMode(m FailureMode) Option {
	return func(w *Watcher) { w.failMode = m }
}

// WithErrorHandler registers a callback Run invokes on every failed
// refresh attempt (transient or final) — the observability hook for
// services that log feed errors. The callback runs on Run's goroutine;
// keep it fast. Counting happens regardless: every watcher carries a
// default error sink that tallies failures and exhausted retry budgets
// into its telemetry counters (Stats, RegisterMetrics), so feed health
// is observable even when no handler is installed.
func WithErrorHandler(fn func(error)) Option {
	return func(w *Watcher) { w.onError = fn }
}

// WatcherStats is a snapshot of a watcher's lifetime telemetry counters.
type WatcherStats struct {
	// Refreshes counts successful source reads published as updates.
	Refreshes uint64 `json:"refreshes"`
	// Failures counts failed refresh attempts, transient ones included
	// (every attempt a retry loop burns adds one).
	Failures uint64 `json:"failures"`
	// Exhausted counts triggers whose whole retry budget failed — the
	// fatal outcomes a Run loop surfaces to its caller.
	Exhausted uint64 `json:"exhausted"`
	// Quarantined counts pools rejected at the feed boundary over the
	// watcher's lifetime (see ErrQuarantined).
	Quarantined uint64 `json:"quarantined"`
	// Readmitted counts pools that came back valid after a quarantine —
	// each one is a healed upstream rejoining the scan set. Duplicates
	// never count: their ID stayed in the set the whole time.
	Readmitted uint64 `json:"readmitted"`
	// ConsecutiveFailures counts failed refresh attempts since the last
	// success — 0 on a healthy feed, the "degraded" signal healthz keys
	// off during an outage.
	ConsecutiveFailures uint64 `json:"consecutive_failures"`
	// LastSuccessAgeSeconds is the age of the last successful refresh, or
	// -1 before the first one.
	LastSuccessAgeSeconds float64 `json:"last_success_age_seconds"`
}

// Watcher reads a pool source on demand and fans versioned updates out to
// subscribers. Create with NewWatcher; drive with Run (polling and/or
// Notify triggers) or call Refresh directly. Safe for concurrent use.
type Watcher struct {
	src            source.PoolSource
	height         func() int64
	notify         chan struct{}
	retryAttempts  int
	retryBackoff   time.Duration
	refreshTimeout time.Duration
	failMode       FailureMode
	onError        func(error)
	jitterRand     *rand.Rand

	// Lifetime counters (see WatcherStats); always on — counting one
	// atomic add per refresh outcome costs nothing worth an option.
	refreshes, failures, exhausted, quarantined, readmitted telemetry.Counter
	// consecFails and lastSuccessNano back the degraded/staleness fields
	// of WatcherStats.
	consecFails     telemetry.Gauge
	lastSuccessNano telemetry.Gauge

	// refreshMu serializes whole Refresh calls — source read through
	// publish — so a pool set read later can never be published under an
	// earlier version (versions order the *data*, not just the calls).
	refreshMu sync.Mutex
	// quarantinedIDs holds the IDs currently serving a quarantine — pools
	// whose last appearance failed validation. A valid reappearance is a
	// re-admission (counted) and clears the entry. Guarded by refreshMu:
	// quarantine only runs inside Refresh.
	quarantinedIDs map[string]struct{}
	// seenIDs is quarantine's duplicate-ID set, cleared and refilled by
	// every refresh. Guarded by refreshMu.
	seenIDs map[string]struct{}

	mu     sync.Mutex
	subs   map[int]chan Update
	nextID int
	last   Update
	closed bool
}

// NewWatcher wraps a pool source.
func NewWatcher(src source.PoolSource, opts ...Option) *Watcher {
	w := &Watcher{
		src:           src,
		notify:        make(chan struct{}, 1),
		subs:          make(map[int]chan Update),
		retryAttempts: DefaultRetryAttempts,
		retryBackoff:  DefaultRetryBackoff,
	}
	for _, opt := range opts {
		opt(w)
	}
	return w
}

// Subscribe registers a subscriber and returns its update channel plus a
// cancel function that must be called to release it. The channel has a
// one-update buffer with coalescing semantics: when the subscriber lags,
// the buffered update is replaced by the newest one, so a receive always
// yields the most recent version the watcher has published (versions may
// skip, they never regress). The channel is closed by cancel or Close.
func (w *Watcher) Subscribe() (<-chan Update, func()) {
	ch := make(chan Update, 1)
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	id := w.nextID
	w.nextID++
	w.subs[id] = ch
	// Late subscribers immediately see the current state instead of
	// waiting up to a block interval for the next update.
	if w.last.Version > 0 {
		ch <- w.last
	}
	w.mu.Unlock()

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			w.mu.Lock()
			if ch, ok := w.subs[id]; ok {
				delete(w.subs, id)
				close(ch)
			}
			w.mu.Unlock()
		})
	}
	return ch, cancel
}

// Refresh reads the source once, stamps the next version, and publishes
// the update to every subscriber. Concurrent Refresh calls are safe:
// they are serialized end to end, so a higher version always carries
// pool data read no earlier than any lower version's.
func (w *Watcher) Refresh(ctx context.Context) (Update, error) {
	w.refreshMu.Lock()
	defer w.refreshMu.Unlock()
	// Height is probed before the pools so a block sealing mid-read makes
	// the stamp conservative (understates freshness) rather than claiming
	// a newer height for older reserves.
	var height int64
	if w.height != nil {
		height = w.height()
	}
	rctx := ctx
	if w.refreshTimeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, w.refreshTimeout)
		defer cancel()
	}
	pools, err := w.src.Pools(rctx)
	if err != nil {
		w.failures.Inc()
		w.consecFails.Add(1)
		return Update{}, err
	}
	pools, dropped := w.quarantine(pools)
	if dropped > 0 {
		w.quarantined.Add(uint64(dropped))
		if len(pools) == 0 {
			w.failures.Inc()
			w.consecFails.Add(1)
			return Update{}, ErrNoValidPools
		}
	}
	// Only Refresh writes w.last, under refreshMu, so it is read here
	// without w.mu. The fingerprint is hashed only when the canonical
	// topology differs from the last update's.
	pools = scan.Canonicalize(pools)
	prev := w.last
	u := Update{
		Version:         prev.Version + 1,
		Height:          height,
		Pools:           pools,
		Fingerprint:     prev.Fingerprint,
		TopologyChanged: prev.Version == 0 || !sameTopology(prev.Pools, pools),
	}
	if u.TopologyChanged {
		u.Fingerprint = scan.Fingerprint(pools)
	} else {
		u.ChangedPools = changedReserves(prev.Pools, pools)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return Update{}, ErrClosed
	}
	w.refreshes.Inc()
	w.consecFails.Set(0)
	w.lastSuccessNano.Set(time.Now().UnixNano())
	w.last = u
	for _, ch := range w.subs {
		SendCoalesce(ch, u)
	}
	return u, nil
}

// quarantine validates every ingested pool against amm.Pool.Validate plus
// a duplicate-ID check, dropping poisoned entries so NaN reserves or a
// doubled pool never reach the solver. Each rejection is reported to the
// error-handler callback wrapping ErrQuarantined. The clean path (every
// pool valid — the steady state) returns the input slice untouched; a
// filtered copy is built only once the first pool is dropped.
//
// Quarantine is not a one-way door: the rejected IDs are remembered, and
// a pool that later shows up valid again rejoins the published set on
// that very refresh — the Readmitted counter records each healing so
// operators can tell "flapping upstream" from "permanently poisoned".
// Duplicate IDs are dropped but never remembered: their first, valid copy
// kept the ID in the set throughout.
func (w *Watcher) quarantine(pools []*amm.Pool) ([]*amm.Pool, int) {
	if w.seenIDs == nil {
		w.seenIDs = make(map[string]struct{}, len(pools))
	}
	seen := w.seenIDs
	clear(seen)
	var kept []*amm.Pool
	dropped := 0
	for i, p := range pools {
		err := p.Validate()
		dup := false
		if err == nil {
			if _, dup = seen[p.ID]; dup {
				err = errors.New("duplicate pool id")
			}
		}
		if err != nil {
			if kept == nil {
				kept = make([]*amm.Pool, i, len(pools))
				copy(kept, pools[:i])
			}
			dropped++
			if !dup {
				if w.quarantinedIDs == nil {
					w.quarantinedIDs = make(map[string]struct{})
				}
				w.quarantinedIDs[p.ID] = struct{}{}
			}
			if w.onError != nil {
				w.onError(fmt.Errorf("%w: pool %q: %w", ErrQuarantined, p.ID, err))
			}
			continue
		}
		if _, healed := w.quarantinedIDs[p.ID]; healed {
			delete(w.quarantinedIDs, p.ID)
			w.readmitted.Inc()
		}
		seen[p.ID] = struct{}{}
		if kept != nil {
			kept = append(kept, p)
		}
	}
	if kept == nil {
		return pools, 0
	}
	return kept, dropped
}

// sameTopology reports whether two canonical pool sets hold the same
// pools at the same positions — equal IDs, token pairs and fee bits,
// everything scan.Fingerprint hashes — so equal sets share a fingerprint
// without hashing either.
func sameTopology(prev, cur []*amm.Pool) bool {
	if len(prev) != len(cur) {
		return false
	}
	for i, p := range cur {
		q := prev[i]
		if q != p && (q.ID != p.ID || q.Token0 != p.Token0 || q.Token1 != p.Token1 ||
			math.Float64bits(q.Fee) != math.Float64bits(p.Fee)) {
			return false
		}
	}
	return true
}

// changedReserves returns, in ID order, the IDs of pools whose reserves
// differ between two canonical views of one topology (sameTopology holds,
// so position i is the same pool in both). The result is non-nil even
// when empty: "nothing changed" is a known dirty set.
func changedReserves(prev, cur []*amm.Pool) []string {
	changed := []string{}
	for i, p := range cur {
		if q := prev[i]; q != p && (q.Reserve0 != p.Reserve0 || q.Reserve1 != p.Reserve1) {
			changed = append(changed, p.ID)
		}
	}
	return changed
}

// Stats returns the watcher's lifetime refresh/failure counters — the
// probe /v1/healthz's feed section polls (server.SetFeedStatsProbe).
func (w *Watcher) Stats() WatcherStats {
	s := WatcherStats{
		Refreshes:             w.refreshes.Load(),
		Failures:              w.failures.Load(),
		Exhausted:             w.exhausted.Load(),
		Quarantined:           w.quarantined.Load(),
		Readmitted:            w.readmitted.Load(),
		ConsecutiveFailures:   uint64(w.consecFails.Load()),
		LastSuccessAgeSeconds: -1,
	}
	if nano := w.lastSuccessNano.Load(); nano > 0 {
		s.LastSuccessAgeSeconds = time.Since(time.Unix(0, nano)).Seconds()
	}
	return s
}

// RegisterMetrics exposes the watcher's counters on reg under the
// arbloop_feed_* families.
func (w *Watcher) RegisterMetrics(reg *telemetry.Registry) {
	reg.Counter("arbloop_feed_refreshes_total", "", "successful pool-source reads published as updates", &w.refreshes)
	reg.Counter("arbloop_feed_failures_total", "", "failed refresh attempts, transient retries included", &w.failures)
	reg.Counter("arbloop_feed_exhausted_total", "", "triggers whose whole retry budget failed", &w.exhausted)
	reg.Counter("arbloop_feed_quarantined_total", "", "pools rejected at the feed boundary (invalid reserves/fee, duplicate ID)", &w.quarantined)
	reg.Counter("arbloop_feed_readmitted_total", "", "quarantined pools that came back valid and rejoined the scan set", &w.readmitted)
	reg.Gauge("arbloop_feed_consecutive_failures", "", "failed refresh attempts since the last success", func() float64 { return float64(w.consecFails.Load()) })
	reg.Gauge("arbloop_feed_last_success_age_seconds", "", "age of the last successful refresh (-1 before the first)", func() float64 { return w.Stats().LastSuccessAgeSeconds })
}

// Latest returns the most recently published update (zero Version when
// none has been published yet).
func (w *Watcher) Latest() Update {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last
}

// Notify requests an asynchronous Refresh from a running Run loop. It
// never blocks and collapses bursts: any number of notifications between
// two refreshes produce one. Wire it to chain.State.OnBlock.
func (w *Watcher) Notify() {
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// Run refreshes on every Notify signal and, when interval > 0, on a poll
// tick — sources without a push hook still produce a live feed. A failed
// refresh is retried in place with exponential backoff (WithRetry; 3
// attempts, 100 ms base by default) so one flaky poll never tears down
// every subscription; each attempt's error also reaches the
// WithErrorHandler callback. Run blocks until ctx is cancelled and
// returns the final error of a trigger whose every attempt failed
// (context cancellation returns nil) — unless WithFailureMode(FailDegrade)
// is set, in which case exhausted triggers are absorbed and Run keeps
// serving. Close is called on exit, ending all subscriptions.
func (w *Watcher) Run(ctx context.Context, interval time.Duration) error {
	defer w.Close()
	var tick <-chan time.Time
	if interval > 0 {
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-w.notify:
		case <-tick:
		}
		if err := w.refreshWithRetry(ctx); err != nil {
			if ctx.Err() != nil || errors.Is(err, ErrClosed) {
				return nil
			}
			if w.failMode == FailDegrade {
				// Stay alive: subscriptions keep the last good update, the
				// exhausted trigger is already counted, and the next
				// trigger gets a fresh retry budget. Staleness-aware
				// serving (healthz degraded/stale) is the alarm now, not
				// process death.
				continue
			}
			return err
		}
	}
}

// refreshWithRetry performs one trigger's refresh with bounded in-place
// retries, sleeping the (doubling) backoff between attempts. It returns
// nil on any success, ctx.Err()/ErrClosed to signal a clean shutdown, and
// the last refresh error once the attempt budget is spent.
func (w *Watcher) refreshWithRetry(ctx context.Context) error {
	backoff := w.retryBackoff
	for attempt := 1; ; attempt++ {
		_, err := w.Refresh(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || errors.Is(err, ErrClosed) {
			return err
		}
		if w.onError != nil {
			w.onError(err)
		}
		if attempt >= w.retryAttempts {
			w.exhausted.Inc()
			return err
		}
		if backoff > 0 {
			timer := time.NewTimer(w.jitterBackoff(backoff))
			select {
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-timer.C:
			}
			backoff *= 2
		}
	}
}

// jitterBackoff perturbs a nominal backoff by ±RetryJitterFrac so watcher
// replicas recovering from the same outage don't re-poll the source in
// lockstep. The doubling schedule itself stays exact (backoff *= 2 on
// the nominal value); only each sleep is drawn.
func (w *Watcher) jitterBackoff(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	var f float64
	if w.jitterRand != nil {
		f = w.jitterRand.Float64()
	} else {
		f = rand.Float64()
	}
	scale := 1 - RetryJitterFrac + 2*RetryJitterFrac*f
	return time.Duration(float64(d) * scale)
}

// Close ends the watcher: subscriber channels are closed and further
// Refresh calls fail with ErrClosed. Idempotent.
func (w *Watcher) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	for id, ch := range w.subs {
		delete(w.subs, id)
		close(ch)
	}
}
