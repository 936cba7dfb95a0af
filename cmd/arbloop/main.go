// Command arbloop is the library's CLI: generate synthetic markets,
// scan them for arbitrage loops with any registered strategy, and
// compare the paper's four profit-maximization strategies.
//
// Usage:
//
//	arbloop gen      [-seed N] [-tokens N] [-pools N] [-o FILE]
//	arbloop scan     [-snapshot FILE] [-len N] [-strategy NAME] [-parallel N] [-top N] [-min-profit X] [-max-cycles N] [-stream] [-json] [-cpuprofile FILE] [-runs N]
//	arbloop detect   [-snapshot FILE] [-len N] [-top N]
//	arbloop optimize [-snapshot FILE] [-len N] [-loop N]
//	arbloop execute  [-snapshot FILE] [-len N] [-loop N]
//	arbloop serve    [-addr HOST:PORT] [-snapshot FILE] [-len N] [-strategy NAME] [-pprof HOST:PORT] [-block-interval D] [-noise N] [-oplog DIR] ...
//	arbloop replay   [-addr HOST:PORT] [-interval D] [-loop] DIR
//
// Without -snapshot the paper-calibrated synthetic market is generated in
// memory. `scan` is the one-shot entry point: one detection pass, then
// per-loop optimization fanned out over a worker pool; `detect` is the
// same scan fixed to the MaxMax strategy for quick triage. `serve` is the
// long-lived entry point: it mirrors the market onto the chain simulator,
// drives blocks with retail noise flow, re-scans on every block through
// the topology cache, and serves the ranked report over HTTP
// (/v1/report, /v1/stream SSE, /v1/healthz).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/big"
	"os"
	"runtime/pprof"
	"strings"

	"arbloop"
	"arbloop/internal/chain"
	"arbloop/internal/distrib"
	"arbloop/internal/plot"
	"arbloop/internal/source"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "arbloop:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "gen":
		return cmdGen(args[1:])
	case "scan":
		return cmdScan(args[1:])
	case "detect":
		return cmdDetect(args[1:])
	case "optimize":
		return cmdOptimize(args[1:])
	case "execute":
		return cmdExecute(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "replay":
		return cmdReplay(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `arbloop — arbitrage-loop profit maximization (Zhang et al., ICDCS 2024)

subcommands:
  gen       generate a synthetic market snapshot as JSON
  scan      whole-market scan with any strategy (%s)
  detect    list arbitrage loops in a snapshot (MaxMax triage scan)
  optimize  compare Traditional/MaxPrice/MaxMax/Convex on a loop
  execute   run the best plan atomically on the chain simulator
  serve     run the live opportunity service (HTTP + SSE) over the chain simulator
  replay    re-serve a recorded oplog directory through the distribution tier
`, strings.Join(arbloop.StrategyNames(), ", "))
}

func loadOrGenerate(path string, seed int64) (*arbloop.Snapshot, error) {
	if path == "" {
		cfg := arbloop.DefaultGeneratorConfig()
		if seed != 0 {
			cfg.Seed = seed
		}
		return arbloop.GenerateMarket(cfg)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open snapshot: %w", err)
	}
	defer func() { _ = f.Close() }()
	return arbloop.LoadSnapshot(f)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	seed := fs.Int64("seed", 0, "generator seed (0 = paper default)")
	tokens := fs.Int("tokens", 0, "token count (0 = paper's 51)")
	pools := fs.Int("pools", 0, "pool count (0 = paper's 208)")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := arbloop.DefaultGeneratorConfig()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *tokens > 0 {
		cfg.Tokens = *tokens
	}
	if *pools > 0 {
		cfg.Pools = *pools
	}
	snap, err := arbloop.GenerateMarket(cfg)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("create output: %w", err)
		}
		defer func() { _ = f.Close() }()
		w = f
	}
	if err := snap.Save(w); err != nil {
		return err
	}
	st := snap.Stats()
	fmt.Fprintf(os.Stderr, "generated %d tokens, %d pools, total TVL $%.0f\n", st.Tokens, st.Pools, st.TotalTVL)
	return nil
}

// newScanner applies the paper's §VI pool filters and builds a Scanner
// over the snapshot.
func newScanner(snap *arbloop.Snapshot, opts ...arbloop.ScannerOption) (*arbloop.Scanner, error) {
	src := arbloop.FromSnapshot(snap.FilterPools(30_000, 100))
	return arbloop.NewScanner(src, src, opts...)
}

func cmdScan(args []string) error {
	fs := flag.NewFlagSet("scan", flag.ContinueOnError)
	snapshot := fs.String("snapshot", "", "snapshot JSON (default: generate synthetic)")
	seed := fs.Int64("seed", 0, "generator seed when generating")
	loopLen := fs.Int("len", 3, "loop length")
	strategyName := fs.String("strategy", arbloop.StrategyMaxMax,
		"per-loop strategy: "+strings.Join(arbloop.StrategyNames(), ", "))
	parallel := fs.Int("parallel", 0, "optimization workers (0 = GOMAXPROCS)")
	top := fs.Int("top", 20, "keep the N most profitable loops (0 = all)")
	minProfit := fs.Float64("min-profit", 0, "drop loops predicted below this USD profit")
	maxCycles := fs.Int("max-cycles", 0, "fail the scan past this many enumerated cycles (0 = unlimited)")
	stream := fs.Bool("stream", false, "print results as they complete instead of a ranked table")
	jsonOut := fs.Bool("json", false, "emit the report as JSON (the same encoding `arbloop serve` serves)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the scan phase to this file (inspect with `go tool pprof`)")
	runs := fs.Int("runs", 1, "repeat the scan N times (report the last; >1 gives profiles enough samples)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stream && *jsonOut {
		return fmt.Errorf("scan: -stream and -json are mutually exclusive")
	}
	if *runs < 1 {
		return fmt.Errorf("scan: -runs must be >= 1")
	}
	if *stream && (*cpuprofile != "" || *runs != 1) {
		return fmt.Errorf("scan: -cpuprofile/-runs apply to batch scans, not -stream")
	}
	snap, err := loadOrGenerate(*snapshot, *seed)
	if err != nil {
		return err
	}
	sc, err := newScanner(snap,
		arbloop.WithLoopLengths(*loopLen, *loopLen),
		arbloop.WithStrategyName(*strategyName),
		arbloop.WithParallelism(*parallel),
		arbloop.WithMinProfitUSD(*minProfit),
		arbloop.WithMaxCycles(*maxCycles),
		arbloop.WithTopK(*top),
	)
	if err != nil {
		return err
	}
	// Cancelling on early return stops the stream's worker pool instead
	// of leaking it blocked on an unconsumed channel.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	if *stream {
		n := 0
		for r := range sc.ScanStream(ctx) {
			if r.Err != nil {
				return r.Err
			}
			n++
			fmt.Printf("loop %3d  %-40s $%.2f\n", r.Index, r.Loop.String(), r.Result.Monetized)
		}
		fmt.Printf("%d results streamed\n", n)
		return nil
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		defer func() { _ = f.Close() }()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	var report arbloop.ScanReport
	for i := 0; i < *runs; i++ {
		if report, err = sc.Scan(ctx); err != nil {
			return err
		}
	}
	if *jsonOut {
		return distrib.Encode(report, 0, 0).WriteIndented(os.Stdout)
	}
	fmt.Printf("graph: %d tokens, %d pools; %d/%d cycles are arbitrage loops of length %d; strategy %s ×%d workers\n",
		report.Tokens, report.Pools, report.LoopsDetected, report.CyclesExamined, *loopLen,
		report.Strategy, report.Parallelism)
	tbl := plot.Table{Columns: []string{"#", "loop", "start", "profit ($)"}}
	for _, r := range report.Results {
		start := r.Result.StartToken
		if start == "" {
			start = "(all)"
		}
		tbl.AddRow(fmt.Sprint(r.Index), r.Loop.String(), start, fmt.Sprintf("%.2f", r.Result.Monetized))
	}
	return tbl.Render(os.Stdout)
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ContinueOnError)
	snapshot := fs.String("snapshot", "", "snapshot JSON (default: generate synthetic)")
	seed := fs.Int64("seed", 0, "generator seed when generating")
	loopLen := fs.Int("len", 3, "loop length")
	top := fs.Int("top", 20, "show the N most profitable loops")
	if err := fs.Parse(args); err != nil {
		return err
	}
	snap, err := loadOrGenerate(*snapshot, *seed)
	if err != nil {
		return err
	}
	sc, err := newScanner(snap,
		arbloop.WithLoopLengths(*loopLen, *loopLen),
		arbloop.WithTopK(*top),
	)
	if err != nil {
		return err
	}
	report, err := sc.Scan(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d tokens, %d pools; %d arbitrage loops of length %d\n",
		report.Tokens, report.Pools, report.LoopsDetected, *loopLen)
	tbl := plot.Table{Columns: []string{"#", "loop", "best start", "MaxMax profit ($)"}}
	for _, r := range report.Results {
		tbl.AddRow(fmt.Sprint(r.Index), r.Loop.String(), r.Result.StartToken, fmt.Sprintf("%.2f", r.Result.Monetized))
	}
	return tbl.Render(os.Stdout)
}

// bestLoop scans the snapshot with MaxMax and returns the loop at the
// requested detection index (pick < 0 = most profitable).
func bestLoop(snap *arbloop.Snapshot, loopLen, pick int) (*arbloop.Loop, arbloop.Result, error) {
	sc, err := newScanner(snap, arbloop.WithLoopLengths(loopLen, loopLen))
	if err != nil {
		return nil, arbloop.Result{}, err
	}
	report, err := sc.Scan(context.Background())
	if err != nil {
		return nil, arbloop.Result{}, err
	}
	if len(report.Results) == 0 {
		return nil, arbloop.Result{}, fmt.Errorf("no arbitrage loops of length %d", loopLen)
	}
	if pick < 0 {
		r := report.Results[0] // ranked: the most profitable comes first
		return r.Loop, r.Result, nil
	}
	if pick >= report.LoopsDetected {
		return nil, arbloop.Result{}, fmt.Errorf("loop index %d out of range (%d loops)", pick, report.LoopsDetected)
	}
	for _, r := range report.Results {
		if r.Index == pick {
			return r.Loop, r.Result, nil
		}
	}
	return nil, arbloop.Result{}, fmt.Errorf("loop %d is not an arbitrage loop with positive profit", pick)
}

func cmdOptimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	snapshot := fs.String("snapshot", "", "snapshot JSON (default: generate synthetic)")
	seed := fs.Int64("seed", 0, "generator seed when generating")
	loopLen := fs.Int("len", 3, "loop length")
	loopIdx := fs.Int("loop", -1, "loop index from `detect` (-1 = most profitable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	snap, err := loadOrGenerate(*snapshot, *seed)
	if err != nil {
		return err
	}
	loop, _, err := bestLoop(snap, *loopLen, *loopIdx)
	if err != nil {
		return err
	}
	fmt.Printf("loop: %s\n", loop)
	prices := arbloop.PriceMap(snap.PricesUSD)
	ctx := context.Background()

	tbl := plot.Table{Columns: []string{"strategy", "start", "input", "monetized profit ($)"}}
	all, err := arbloop.TraditionalAll(loop, prices)
	if err != nil {
		return err
	}
	for _, r := range all {
		tbl.AddRow(r.Strategy, r.StartToken, fmt.Sprintf("%.4f", r.Input), fmt.Sprintf("%.4f", r.Monetized))
	}
	// The headline strategies, dispatched through the registry.
	var convexNet map[string]float64
	for _, name := range []string{arbloop.StrategyMaxPrice, arbloop.StrategyMaxMax, arbloop.StrategyConvex} {
		s, ok := arbloop.LookupStrategy(name)
		if !ok {
			return fmt.Errorf("strategy %q not registered", name)
		}
		r, err := s.Optimize(ctx, loop, prices)
		if err != nil {
			return err
		}
		start := r.StartToken
		if start == "" {
			start = "(all)"
		}
		tbl.AddRow(r.Strategy, start, fmt.Sprintf("%.4f", r.Plan.Inputs[0]), fmt.Sprintf("%.4f", r.Monetized))
		if name == arbloop.StrategyConvex {
			convexNet = r.NetTokens
		}
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("convex net tokens: %v\n", convexNet)
	return nil
}

func cmdExecute(args []string) error {
	fs := flag.NewFlagSet("execute", flag.ContinueOnError)
	snapshot := fs.String("snapshot", "", "snapshot JSON (default: generate synthetic)")
	seed := fs.Int64("seed", 0, "generator seed when generating")
	loopLen := fs.Int("len", 3, "loop length")
	loopIdx := fs.Int("loop", -1, "loop index (-1 = most profitable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	snap, err := loadOrGenerate(*snapshot, *seed)
	if err != nil {
		return err
	}
	_, mm, err := bestLoop(snap, *loopLen, *loopIdx)
	if err != nil {
		return err
	}

	// Mirror the filtered snapshot onto the chain simulator, scaling token
	// units to 1e6 integer base units.
	const scale = 1_000_000
	state := chain.NewState(1_693_526_400)
	filtered := snap.FilterPools(30_000, 100)
	if err := source.MirrorToChain(state, filtered, scale); err != nil {
		return err
	}
	rot := mm.Loop
	steps := make([]chain.SwapStep, rot.Len())
	for i := 0; i < rot.Len(); i++ {
		steps[i] = chain.SwapStep{PairID: rot.Hop(i).Pool.ID, TokenIn: rot.Tokens()[i]}
	}
	tx := chain.Tx{
		Borrow: mm.StartToken,
		Amount: big.NewInt(int64(mm.Input * scale)),
		Steps:  steps,
	}
	rcpt := state.ExecuteTx(tx)
	if !rcpt.OK {
		return fmt.Errorf("execution reverted: %w", rcpt.Err)
	}
	prices := arbloop.PriceMap(snap.PricesUSD)
	fmt.Printf("executed %s atomically: borrowed %.4f %s, profit:\n", rot, mm.Input, mm.StartToken)
	for tok, amt := range rcpt.Profit {
		f, _ := new(big.Float).Quo(new(big.Float).SetInt(amt), big.NewFloat(scale)).Float64()
		fmt.Printf("  %-8s %+.6f (≈ $%.2f)\n", tok, f, f*prices[tok])
	}
	return nil
}
