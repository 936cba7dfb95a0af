package strategy

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Strategy is a pluggable per-loop profit optimizer. Implementations must
// be safe for concurrent use: the scanner invokes one Strategy value from
// many goroutines at once. The context is checked before optimization
// starts; long-running implementations should also honor it internally.
type Strategy interface {
	// Name returns the strategy's canonical registry name.
	Name() string
	// Optimize maximizes the monetized profit of one arbitrage loop under
	// the given CEX prices.
	Optimize(ctx context.Context, l *Loop, prices PriceMap) (Result, error)
}

// TraditionalStrategy is the paper's traditional strategy: fix a start
// token and maximize P_start·(Δout − Δin) with the closed-form Möbius
// optimum. When Start is empty the loop's anchor token is used.
type TraditionalStrategy struct {
	// Start is the fixed start token ("" = the loop's anchor token).
	Start string
}

// Name implements Strategy.
func (TraditionalStrategy) Name() string { return NameTraditional }

// Optimize implements Strategy.
func (s TraditionalStrategy) Optimize(ctx context.Context, l *Loop, prices PriceMap) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	start := s.Start
	if start == "" {
		start = l.tokens[0]
	}
	return Traditional(l, start, prices)
}

// MaxPriceStrategy starts arbitrage from the loop token with the highest
// CEX price — the heuristic the paper shows to be unreliable.
type MaxPriceStrategy struct{}

// Name implements Strategy.
func (MaxPriceStrategy) Name() string { return NameMaxPrice }

// Optimize implements Strategy.
func (MaxPriceStrategy) Optimize(ctx context.Context, l *Loop, prices PriceMap) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return MaxPrice(l, prices)
}

// MaxMaxStrategy runs Traditional from every token and keeps the best
// monetized profit (paper eq. (6)). This is the default scanner strategy.
type MaxMaxStrategy struct{}

// Name implements Strategy.
func (MaxMaxStrategy) Name() string { return NameMaxMax }

// Optimize implements Strategy.
func (MaxMaxStrategy) Optimize(ctx context.Context, l *Loop, prices PriceMap) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return MaxMax(l, prices)
}

// ConvexStrategy solves the paper's problem (8) exactly (see Convex):
// the best rotation when a KKT certificate accepts it, the best
// closed-form face otherwise; never below MaxMax.
type ConvexStrategy struct {
	// Options has no effect on the solve.
	//
	// Deprecated: the exact solve reads no previous result, so there is
	// nothing to tune. The field remains because the perfbench module
	// still sets it.
	Options ConvexOptions
}

// Name implements Strategy.
func (ConvexStrategy) Name() string { return NameConvex }

// Optimize implements Strategy.
func (s ConvexStrategy) Optimize(ctx context.Context, l *Loop, prices PriceMap) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return Convex(l, prices)
}

// ConvexRiskyStrategy solves the shorting-allowed relaxation the paper
// mentions in §IV but declines to evaluate; an upper bound on any safe
// strategy's profit.
type ConvexRiskyStrategy struct{}

// Name implements Strategy.
func (ConvexRiskyStrategy) Name() string { return NameConvexRisky }

// Optimize implements Strategy.
func (ConvexRiskyStrategy) Optimize(ctx context.Context, l *Loop, prices PriceMap) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return ConvexRisky(l, prices)
}

// registry maps strategy names to implementations. The built-ins register
// at init; callers may add their own with Register.
var registry = struct {
	mu sync.RWMutex
	m  map[string]Strategy
}{m: make(map[string]Strategy)}

// Register adds a strategy under its Name. Registering a nil strategy,
// an empty name, or a duplicate name is an error.
func Register(s Strategy) error {
	if s == nil {
		return fmt.Errorf("strategy: cannot register nil strategy")
	}
	name := s.Name()
	if name == "" {
		return fmt.Errorf("strategy: cannot register empty name")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.m[name]; dup {
		return fmt.Errorf("strategy: %q already registered", name)
	}
	registry.m[name] = s
	return nil
}

// Lookup returns the strategy registered under name.
func Lookup(name string) (Strategy, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	s, ok := registry.m[name]
	return s, ok
}

// Names lists the registered strategy names, sorted.
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]string, 0, len(registry.m))
	for n := range registry.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	for _, s := range []Strategy{
		TraditionalStrategy{},
		MaxPriceStrategy{},
		MaxMaxStrategy{},
		ConvexStrategy{},
		ConvexRiskyStrategy{},
	} {
		if err := Register(s); err != nil {
			panic(err)
		}
	}
}
