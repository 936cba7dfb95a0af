package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"arbloop/internal/cycles"
	"arbloop/internal/graph"
	"arbloop/internal/market"
	"arbloop/internal/strategy"
)

// PipelineConfig parameterizes the §VI empirical pipeline.
type PipelineConfig struct {
	// Generator configures the synthetic snapshot; zero value uses the
	// paper-calibrated defaults.
	Generator market.GeneratorConfig
	// MinTVL and MinReserve are the paper's pool filters ($30k, 100).
	MinTVL, MinReserve float64
	// LoopLen is the loop length to analyze (3 for §VI, 4 for appendix).
	LoopLen int
	// MaxLoops truncates the analysis for quick runs (0 = all).
	MaxLoops int
	// Parallelism bounds the per-loop analysis worker pool
	// (default GOMAXPROCS). Results stay in detection order regardless.
	Parallelism int
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.MinTVL <= 0 {
		c.MinTVL = 30_000
	}
	if c.MinReserve <= 0 {
		c.MinReserve = 100
	}
	if c.LoopLen <= 0 {
		c.LoopLen = 3
	}
	return c
}

// LoopAnalysis bundles every strategy's outcome on one arbitrage loop.
type LoopAnalysis struct {
	// Loop is the profitable orientation, anchored at its canonical token.
	Loop *strategy.Loop
	// Traditional holds one result per start token, in loop order.
	Traditional []strategy.Result
	// MaxPrice, MaxMax and Convex are the headline strategies.
	MaxPrice strategy.Result
	MaxMax   strategy.Result
	Convex   strategy.Result
}

// PipelineResult is the full §VI run.
type PipelineResult struct {
	// Snapshot is the filtered market snapshot.
	Snapshot *market.Snapshot
	// Graph is the token exchange graph built from it.
	Graph *graph.Graph
	// CyclesExamined counts the undirected cycles of the requested length.
	CyclesExamined int
	// Loops holds the per-arbitrage-loop strategy analyses.
	Loops []LoopAnalysis
}

// RunPipeline executes the paper's empirical pipeline: generate (or
// accept) a snapshot, filter pools, build the graph, enumerate loops of
// the requested length, keep the profitable orientations, and run all
// four strategies on each.
func RunPipeline(cfg PipelineConfig) (*PipelineResult, error) {
	cfg = cfg.withDefaults()
	snap, err := market.Generate(cfg.Generator)
	if err != nil {
		return nil, err
	}
	return RunPipelineOnSnapshot(snap, cfg)
}

// RunPipelineOnSnapshot runs the pipeline on a caller-provided snapshot
// (e.g. loaded from disk instead of generated).
func RunPipelineOnSnapshot(snap *market.Snapshot, cfg PipelineConfig) (*PipelineResult, error) {
	cfg = cfg.withDefaults()
	filtered := snap.FilterPools(cfg.MinTVL, cfg.MinReserve)
	g, err := filtered.BuildGraph()
	if err != nil {
		return nil, err
	}
	cs, err := cycles.Enumerate(g, cfg.LoopLen, cfg.LoopLen, 0)
	if err != nil {
		return nil, err
	}
	directed, err := cycles.ArbitrageLoops(g, cs)
	if err != nil {
		return nil, err
	}
	if cfg.MaxLoops > 0 && len(directed) > cfg.MaxLoops {
		directed = directed[:cfg.MaxLoops]
	}

	prices := strategy.PriceMap(filtered.PricesUSD)
	result := &PipelineResult{
		Snapshot:       filtered,
		Graph:          g,
		CyclesExamined: len(cs),
		Loops:          make([]LoopAnalysis, len(directed)),
	}

	// Every loop's analysis is independent: fan the four strategies out
	// over a bounded worker pool, writing each analysis to its detection
	// slot so figure data stays in deterministic order.
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(directed) {
		workers = len(directed)
	}
	analyze := func(i int) error {
		loop, err := LoopFromDirected(g, directed[i])
		if err != nil {
			return err
		}
		trad, err := strategy.TraditionalAll(loop, prices)
		if err != nil {
			return err
		}
		mp, err := strategy.MaxPrice(loop, prices)
		if err != nil {
			return err
		}
		mm, err := strategy.MaxMax(loop, prices)
		if err != nil {
			return err
		}
		cv, err := strategy.Convex(loop, prices)
		if err != nil {
			return fmt.Errorf("experiments: convex on %s: %w", loop, err)
		}
		result.Loops[i] = LoopAnalysis{
			Loop:        loop,
			Traditional: trad,
			MaxPrice:    mp,
			MaxMax:      mm,
			Convex:      cv,
		}
		return nil
	}
	if workers <= 1 {
		for i := range directed {
			if err := analyze(i); err != nil {
				return nil, err
			}
		}
		return result, nil
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed() {
					continue // drain without analyzing once a loop failed
				}
				if err := analyze(i); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}
		}()
	}
	for i := range directed {
		if failed() {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return result, nil
}

// ScatterPoint is one (x, y) sample of the empirical scatter figures.
type ScatterPoint struct {
	X, Y float64
	// Label names the point's series (e.g. the start token of a
	// traditional strategy).
	Label string
}

// Fig5 produces the Traditional-vs-MaxMax scatter: one point per
// (loop, start token); x = MaxMax profit, y = Traditional profit. All
// points must lie on or below the 45° line.
func Fig5(res *PipelineResult) []ScatterPoint {
	var pts []ScatterPoint
	for _, la := range res.Loops {
		for _, tr := range la.Traditional {
			pts = append(pts, ScatterPoint{
				X:     la.MaxMax.Monetized,
				Y:     tr.Monetized,
				Label: "start " + tr.StartToken,
			})
		}
	}
	return pts
}

// Fig6 produces the MaxPrice-vs-MaxMax scatter (one point per loop).
func Fig6(res *PipelineResult) []ScatterPoint {
	pts := make([]ScatterPoint, 0, len(res.Loops))
	for _, la := range res.Loops {
		pts = append(pts, ScatterPoint{
			X:     la.MaxMax.Monetized,
			Y:     la.MaxPrice.Monetized,
			Label: "MaxPrice",
		})
	}
	return pts
}

// Fig7 produces the Convex-vs-MaxMax scatter (one point per loop);
// x = Convex, y = MaxMax, expected to hug the 45° line from below.
func Fig7(res *PipelineResult) []ScatterPoint {
	pts := make([]ScatterPoint, 0, len(res.Loops))
	for _, la := range res.Loops {
		pts = append(pts, ScatterPoint{
			X:     la.Convex.Monetized,
			Y:     la.MaxMax.Monetized,
			Label: "MaxMax",
		})
	}
	return pts
}

// Fig8Row compares the net-token profit vectors of MaxMax and Convex on
// one loop (paper Fig. 8 plots these as overlapping 3-D point clouds).
type Fig8Row struct {
	// Tokens lists the loop's tokens in loop order.
	Tokens []string
	// MaxMaxNet and ConvexNet are net profits per token, aligned with
	// Tokens.
	MaxMaxNet, ConvexNet []float64
}

// Fig8 extracts the net-token vectors for every loop.
func Fig8(res *PipelineResult) []Fig8Row {
	rows := make([]Fig8Row, 0, len(res.Loops))
	for _, la := range res.Loops {
		toks := la.Loop.Tokens()
		mm := make([]float64, len(toks))
		cv := make([]float64, len(toks))
		for i, t := range toks {
			mm[i] = la.MaxMax.NetTokens[t]
			cv[i] = la.Convex.NetTokens[t]
		}
		rows = append(rows, Fig8Row{Tokens: toks, MaxMaxNet: mm, ConvexNet: cv})
	}
	return rows
}

// Fig9 is the appendix Traditional-vs-Convex scatter for length-4 loops:
// one point per (loop, start); x = Convex, y = Traditional.
func Fig9(res *PipelineResult) []ScatterPoint {
	var pts []ScatterPoint
	for _, la := range res.Loops {
		for _, tr := range la.Traditional {
			pts = append(pts, ScatterPoint{
				X:     la.Convex.Monetized,
				Y:     tr.Monetized,
				Label: "start " + tr.StartToken,
			})
		}
	}
	return pts
}

// Fig10 is the appendix MaxMax-vs-Convex scatter for length-4 loops.
func Fig10(res *PipelineResult) []ScatterPoint {
	return Fig7(res)
}
