package scan

import (
	"math"
	"strings"
	"sync"

	"arbloop/internal/strategy"
)

// WarmHint is one recovered warm start: the token cycle of a previously
// optimized loop and its per-hop input amounts, in the hint's own
// rotation. Hints come from outside the engine — typically the durable
// opportunity log's tail after a restart — so they are matched and
// sanitized, never trusted.
type WarmHint struct {
	Tokens []string
	Inputs []float64
}

// WarmHints stages recovered warm starts for the first capture after a
// restart. Loops are matched by token cycle up to rotation (the same
// physical loop re-detects in an arbitrary rotation), hint inputs are
// re-aligned into the detected loop's indexing, and non-finite or
// negative amounts disqualify a hint. The set is take-once: the first
// full scan consumes it, and every later scan warm-starts from its own
// previous results as usual. The zero value stages nothing. A caller
// that learns its hints only after building its engines points the
// config at an empty set up front and Stages into it later: every copy
// of the config shares the one set.
type WarmHints struct {
	mu    sync.Mutex
	hints map[string]WarmHint
}

// Stage replaces the staged set with hints and reports whether any was
// usable. Hints with a degenerate shape (no tokens, length mismatch) are
// dropped here; value sanity is checked at match time. When nothing
// usable remains the previous set is kept.
func (w *WarmHints) Stage(hints []WarmHint) bool {
	m := make(map[string]WarmHint, len(hints))
	for _, h := range hints {
		if len(h.Tokens) == 0 || len(h.Tokens) != len(h.Inputs) {
			continue
		}
		m[rotationKey(h.Tokens)] = h
	}
	if len(m) == 0 {
		return false
	}
	w.mu.Lock()
	w.hints = m
	w.mu.Unlock()
	return true
}

// rotationKey canonicalizes a token cycle up to rotation (direction
// preserved): anchor at the rotation that yields the lexicographically
// smallest joined form, so every rotation of one cycle maps to one key.
func rotationKey(tokens []string) string {
	n := len(tokens)
	best := ""
	var b strings.Builder
	for off := 0; off < n; off++ {
		b.Reset()
		for i := 0; i < n; i++ {
			b.WriteString(tokens[(i+off)%n])
			b.WriteByte(0)
		}
		if s := b.String(); best == "" || s < best {
			best = s
		}
	}
	return best
}

// take consumes the hint set against one detected loop slice, returning
// a prev-result slice for optimizeInto (nil when nothing matched). Each
// matched hint becomes a strategy.Result anchored on the detected loop
// itself with inputs re-aligned into its rotation — exactly the shape
// WarmStarter.OptimizeWarm accepts on its direct path.
func (w *WarmHints) take(loops []*strategy.Loop) []*strategy.Result {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	hints := w.hints
	w.hints = nil
	w.mu.Unlock()
	if len(hints) == 0 {
		return nil
	}
	var prev []*strategy.Result
	for li, l := range loops {
		tokens := l.Tokens()
		h, ok := hints[rotationKey(tokens)]
		if !ok {
			continue
		}
		aligned, ok := alignHint(tokens, h)
		if !ok {
			continue
		}
		if prev == nil {
			prev = make([]*strategy.Result, len(loops))
		}
		prev[li] = &strategy.Result{
			Loop: l,
			Plan: strategy.TradePlan{Inputs: aligned},
		}
	}
	return prev
}

// alignHint maps h's inputs onto the loop rotation given by tokens:
// find the offset where the hint's cycle lines up, then place
// h.Inputs[i] at position (i+offset) mod n. Any non-finite or negative
// amount disqualifies the whole hint — a corrupt warm start is worse
// than a cold one.
func alignHint(tokens []string, h WarmHint) ([]float64, bool) {
	n := len(tokens)
	if len(h.Tokens) != n || len(h.Inputs) != n {
		return nil, false
	}
	offset := -1
	for i := 0; i < n; i++ {
		if tokens[i] == h.Tokens[0] {
			offset = i
			break
		}
	}
	if offset < 0 {
		return nil, false
	}
	for i := 0; i < n; i++ {
		if h.Tokens[i] != tokens[(i+offset)%n] {
			return nil, false
		}
	}
	out := make([]float64, n)
	for i, v := range h.Inputs {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, false
		}
		out[(i+offset)%n] = v
	}
	return out, true
}
