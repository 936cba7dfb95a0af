// Command figures regenerates every figure and table of the paper as CSV
// data plus ASCII previews.
//
// Usage:
//
//	figures [-out DIR] [-fig N] [-table N] [-step S] [-seed SEED]
//
// With no -fig/-table flag every artifact is produced. CSV files land in
// DIR (default ./out); ASCII previews print to stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"arbloop/internal/experiments"
	"arbloop/internal/market"
	"arbloop/internal/plot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	outDir := fs.String("out", "out", "directory for CSV output")
	fig := fs.Int("fig", 0, "regenerate only figure N (1-10); 0 = all")
	table := fs.Int("table", 0, "regenerate only table N (1-3); 0 = all")
	ext := fs.Bool("ext", false, "also run the extension experiments (gap study, risky variant, bot decay)")
	step := fs.Float64("step", 0.2, "Px sweep step for figures 2-4")
	seed := fs.Int64("seed", 0, "market generator seed (0 = paper default)")
	parallel := fs.Int("parallel", 0, "per-loop analysis workers (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}

	gen := market.DefaultGeneratorConfig()
	if *seed != 0 {
		gen.Seed = *seed
	}

	only := func(n, want int) bool { return n == 0 || n == want }
	wantFig := func(n int) bool { return *table == 0 && only(*fig, n) }
	wantTable := func(n int) bool { return *fig == 0 && only(*table, n) }

	var pipe3, pipe4 *experiments.PipelineResult
	needPipe3 := wantFig(5) || wantFig(6) || wantFig(7) || wantFig(8) || *ext
	needPipe4 := wantFig(9) || wantFig(10)
	var err error
	if needPipe3 {
		if pipe3, err = experiments.RunPipeline(experiments.PipelineConfig{Generator: gen, LoopLen: 3, Parallelism: *parallel}); err != nil {
			return err
		}
	}
	if needPipe4 {
		if pipe4, err = experiments.RunPipeline(experiments.PipelineConfig{Generator: gen, LoopLen: 4, Parallelism: *parallel}); err != nil {
			return err
		}
	}

	type job struct {
		want bool
		run  func() error
	}
	jobs := []job{
		{wantFig(1), func() error { return emitFig1(*outDir) }},
		{wantFig(2) || wantFig(3) || wantFig(4), func() error { return emitSweepFigs(*outDir, *step, *fig) }},
		{wantFig(5), func() error {
			return emitScatter(*outDir, "fig05", "Fig 5: Traditional vs MaxMax (len 3)", "MaxMax profit ($)", "Traditional profit ($)", experiments.Fig5(pipe3))
		}},
		{wantFig(6), func() error {
			return emitScatter(*outDir, "fig06", "Fig 6: MaxPrice vs MaxMax (len 3)", "MaxMax profit ($)", "MaxPrice profit ($)", experiments.Fig6(pipe3))
		}},
		{wantFig(7), func() error {
			return emitScatter(*outDir, "fig07", "Fig 7: MaxMax vs Convex (len 3)", "Convex profit ($)", "MaxMax profit ($)", experiments.Fig7(pipe3))
		}},
		{wantFig(8), func() error { return emitFig8(*outDir, pipe3) }},
		{wantFig(9), func() error {
			return emitScatter(*outDir, "fig09", "Fig 9: Traditional vs Convex (len 4)", "Convex profit ($)", "Traditional profit ($)", experiments.Fig9(pipe4))
		}},
		{wantFig(10), func() error {
			return emitScatter(*outDir, "fig10", "Fig 10: MaxMax vs Convex (len 4)", "Convex profit ($)", "MaxMax profit ($)", experiments.Fig10(pipe4))
		}},
		{wantTable(1), emitTableT1},
		{wantTable(2), func() error { return emitTableT2(gen) }},
		{wantTable(3), emitTableT3},
		{*ext, func() error { return emitExtensions(*outDir, pipe3) }},
	}
	ran := false
	for _, j := range jobs {
		if !j.want {
			continue
		}
		ran = true
		if err := j.run(); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("nothing selected: fig=%d table=%d", *fig, *table)
	}
	return nil
}

func writeCSV(dir, name string, header []string, rows [][]float64) error {
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer func() { _ = f.Close() }()
	if err := plot.WriteCSV(f, header, rows); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(rows))
	return f.Close()
}

func emitFig1(dir string) error {
	res, err := experiments.Fig1(301)
	if err != nil {
		return err
	}
	rows := make([][]float64, 0, len(res.Rows))
	for _, r := range res.Rows {
		rows = append(rows, []float64{r.Input, r.Profit, r.Derivative})
	}
	if err := writeCSV(dir, "fig01", []string{"input", "profit", "derivative"}, rows); err != nil {
		return err
	}
	var c plot.Chart
	c.Title = fmt.Sprintf("Fig 1: profit vs input; optimum Δ*=%.2f profit=%.2f (dΔout/dΔin = 1)", res.OptimalInput, res.MaxProfit)
	c.XLabel, c.YLabel = "Δx_in", "Δx_out − Δx_in"
	xs := make([]float64, len(res.Rows))
	ys := make([]float64, len(res.Rows))
	for i, r := range res.Rows {
		xs[i], ys[i] = r.Input, r.Profit
	}
	if err := c.Add("profit", '*', xs, ys); err != nil {
		return err
	}
	if err := c.Add("optimum", 'O', []float64{res.OptimalInput}, []float64{res.MaxProfit}); err != nil {
		return err
	}
	return c.Render(os.Stdout)
}

func emitSweepFigs(dir string, step float64, figOnly int) error {
	rows, err := experiments.PxSweep(step)
	if err != nil {
		return err
	}
	want := func(n int) bool { return figOnly == 0 || figOnly == n }

	if want(2) {
		data := make([][]float64, 0, len(rows))
		for _, r := range rows {
			data = append(data, []float64{r.Px, r.StartX, r.StartY, r.StartZ, r.MaxMax})
		}
		if err := writeCSV(dir, "fig02", []string{"px", "start_x", "start_y", "start_z", "maxmax"}, data); err != nil {
			return err
		}
		var c plot.Chart
		c.Title = "Fig 2: monetized profit vs Px (three starts + MaxMax envelope)"
		c.XLabel, c.YLabel = "Px ($)", "profit ($)"
		add := func(name string, marker rune, get func(experiments.SweepRow) float64) error {
			xs := make([]float64, len(rows))
			ys := make([]float64, len(rows))
			for i, r := range rows {
				xs[i], ys[i] = r.Px, get(r)
			}
			return c.Add(name, marker, xs, ys)
		}
		if err := add("start X", 'x', func(r experiments.SweepRow) float64 { return r.StartX }); err != nil {
			return err
		}
		if err := add("start Y", 'y', func(r experiments.SweepRow) float64 { return r.StartY }); err != nil {
			return err
		}
		if err := add("start Z", 'z', func(r experiments.SweepRow) float64 { return r.StartZ }); err != nil {
			return err
		}
		if err := add("MaxMax", 'M', func(r experiments.SweepRow) float64 { return r.MaxMax }); err != nil {
			return err
		}
		if err := c.Render(os.Stdout); err != nil {
			return err
		}
	}
	if want(3) {
		data := make([][]float64, 0, len(rows))
		for _, r := range rows {
			data = append(data, []float64{r.Px, r.MaxMax, r.Convex})
		}
		if err := writeCSV(dir, "fig03", []string{"px", "maxmax", "convex"}, data); err != nil {
			return err
		}
		var c plot.Chart
		c.Title = "Fig 3: MaxMax vs ConvexOptimization vs Px"
		c.XLabel, c.YLabel = "Px ($)", "profit ($)"
		xs := make([]float64, len(rows))
		mm := make([]float64, len(rows))
		cv := make([]float64, len(rows))
		for i, r := range rows {
			xs[i], mm[i], cv[i] = r.Px, r.MaxMax, r.Convex
		}
		if err := c.Add("MaxMax", 'M', xs, mm); err != nil {
			return err
		}
		if err := c.Add("Convex", 'C', xs, cv); err != nil {
			return err
		}
		if err := c.Render(os.Stdout); err != nil {
			return err
		}
	}
	if want(4) {
		data := make([][]float64, 0, len(rows))
		for _, r := range rows {
			data = append(data, []float64{r.Px, r.NetX, r.NetY, r.NetZ, r.Convex})
		}
		if err := writeCSV(dir, "fig04", []string{"px", "net_x", "net_y", "net_z", "monetized"}, data); err != nil {
			return err
		}
		var c plot.Chart
		c.Title = "Fig 4: Convex net-token composition vs Px"
		c.XLabel, c.YLabel = "Px ($)", "net tokens"
		xs := make([]float64, len(rows))
		nx := make([]float64, len(rows))
		ny := make([]float64, len(rows))
		nz := make([]float64, len(rows))
		for i, r := range rows {
			xs[i], nx[i], ny[i], nz[i] = r.Px, r.NetX, r.NetY, r.NetZ
		}
		if err := c.Add("net X", 'x', xs, nx); err != nil {
			return err
		}
		if err := c.Add("net Y", 'y', xs, ny); err != nil {
			return err
		}
		if err := c.Add("net Z", 'z', xs, nz); err != nil {
			return err
		}
		if err := c.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func emitScatter(dir, name, title, xlabel, ylabel string, pts []experiments.ScatterPoint) error {
	data := make([][]float64, 0, len(pts))
	xs := make([]float64, 0, len(pts))
	ys := make([]float64, 0, len(pts))
	var maxV float64
	for _, p := range pts {
		data = append(data, []float64{p.X, p.Y})
		xs = append(xs, p.X)
		ys = append(ys, p.Y)
		if p.X > maxV {
			maxV = p.X
		}
	}
	if err := writeCSV(dir, name, []string{"x", "y"}, data); err != nil {
		return err
	}
	var c plot.Chart
	c.Title = title
	c.XLabel, c.YLabel = xlabel, ylabel
	if err := c.Add("loops", '+', xs, ys); err != nil {
		return err
	}
	// 45° reference line.
	diag := []float64{0, maxV}
	if err := c.Add("45° line", '.', diag, diag); err != nil {
		return err
	}
	return c.Render(os.Stdout)
}

func emitFig8(dir string, pipe *experiments.PipelineResult) error {
	rows := experiments.Fig8(pipe)
	data := make([][]float64, 0, len(rows))
	for _, r := range rows {
		if len(r.MaxMaxNet) != 3 {
			continue
		}
		data = append(data, []float64{
			r.MaxMaxNet[0], r.MaxMaxNet[1], r.MaxMaxNet[2],
			r.ConvexNet[0], r.ConvexNet[1], r.ConvexNet[2],
		})
	}
	if err := writeCSV(dir, "fig08",
		[]string{"mm_net_0", "mm_net_1", "mm_net_2", "cv_net_0", "cv_net_1", "cv_net_2"}, data); err != nil {
		return err
	}
	// ASCII preview: MaxMax vs Convex net of the dominant token per loop.
	var c plot.Chart
	c.Title = "Fig 8: dominant-token net profit, MaxMax (x) vs Convex (y)"
	c.XLabel, c.YLabel = "MaxMax net", "Convex net"
	xs := make([]float64, 0, len(data))
	ys := make([]float64, 0, len(data))
	for _, d := range data {
		mi, ci := 0, 0
		for k := 1; k < 3; k++ {
			if d[k] > d[mi] {
				mi = k
			}
			if d[3+k] > d[3+ci] {
				ci = k
			}
		}
		xs = append(xs, d[mi])
		ys = append(ys, d[3+ci])
	}
	if len(xs) == 0 {
		return nil
	}
	if err := c.Add("loops", '+', xs, ys); err != nil {
		return err
	}
	return c.Render(os.Stdout)
}

func emitTableT1() error {
	res, err := experiments.TableT1()
	if err != nil {
		return err
	}
	tbl := plot.Table{
		Title:   "T1: Section V example (paper: X 27.0→16.8/33.7$, Y 31.5→19.7/201.1$, Z 16.4→10.3/205.6$; MaxMax 205.6$; Convex 206.1$)",
		Columns: []string{"start", "input", "token profit", "monetized $"},
	}
	for _, s := range res.Starts {
		tbl.AddRow(s.Start, fmt.Sprintf("%.1f", s.Input), fmt.Sprintf("%.1f", s.Profit), fmt.Sprintf("%.1f", s.Monetized))
	}
	tbl.AddRow("MaxMax("+res.MaxMaxStart+")", "", "", fmt.Sprintf("%.1f", res.MaxMaxMonetized))
	tbl.AddRow("Convex", "", "", fmt.Sprintf("%.1f", res.ConvexMonetized))
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("Convex plan: inputs %.1f/%.1f/%.1f outputs %.1f/%.1f/%.1f net X=%.2f Y=%.2f Z=%.2f\n",
		res.ConvexInputs[0], res.ConvexInputs[1], res.ConvexInputs[2],
		res.ConvexOutputs[0], res.ConvexOutputs[1], res.ConvexOutputs[2],
		res.ConvexNet["X"], res.ConvexNet["Y"], res.ConvexNet["Z"])
	return nil
}

func emitTableT2(gen market.GeneratorConfig) error {
	res, err := experiments.TableT2(gen)
	if err != nil {
		return err
	}
	tbl := plot.Table{
		Title:   "T2: graph statistics (paper: 51 tokens, 208 pools, 123 arbitrage loops len 3)",
		Columns: []string{"metric", "value"},
	}
	tbl.AddRow("tokens", fmt.Sprint(res.Tokens))
	tbl.AddRow("pools (TVL ≥ $30k, reserves ≥ 100)", fmt.Sprint(res.Pools))
	tbl.AddRow("cycles len 3", fmt.Sprint(res.CyclesLen3))
	tbl.AddRow("arbitrage loops len 3", fmt.Sprint(res.ArbLoopsLen3))
	tbl.AddRow("cycles len 4", fmt.Sprint(res.CyclesLen4))
	tbl.AddRow("arbitrage loops len 4", fmt.Sprint(res.ArbLoopsLen4))
	tbl.AddRow("total TVL ($)", fmt.Sprintf("%.0f", res.TotalTVLUSD))
	return tbl.Render(os.Stdout)
}

func emitTableT3() error {
	rows, err := experiments.TableT3(nil, 5)
	if err != nil {
		return err
	}
	tbl := plot.Table{
		Title:   "T3: runtime vs loop length (paper §VII: MaxMax ms-level at len 10; generic convex solver seconds)",
		Columns: []string{"length", "MaxMax closed-form", "MaxMax bisection", "Convex barrier", "Convex exact"},
	}
	for _, r := range rows {
		tbl.AddRow(fmt.Sprint(r.Length), r.MaxMaxClosed.String(), r.MaxMaxBisect.String(), r.Barrier.String(), r.Convex.String())
	}
	return tbl.Render(os.Stdout)
}
