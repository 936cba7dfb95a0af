package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json compare mode reads: each
// metric's direction and, for end-to-end metrics, its bound.
type benchDef struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchDef(path string) (benchDef, error) {
	var def benchDef
	b, err := os.ReadFile(path)
	if err != nil {
		return def, err
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return def, fmt.Errorf("%s: %w", path, err)
	}
	return def, nil
}

// savedRun is one saved benchmark output: its run record and result.
type savedRun struct {
	file string
	rec  runRecord
	res  result
}

// loadRuns reads every file of dir as one saved run: the "# run" line
// and the final result line.
func loadRuns(dir string) ([]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		r, err := parseRun(path)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no saved runs", dir)
	}
	return runs, nil
}

func parseRun(path string) (savedRun, error) {
	r := savedRun{file: path}
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var last string
	haveRec := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, runPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &r.rec); err != nil {
				return r, fmt.Errorf("run record: %w", err)
			}
			haveRec = true
		}
		if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	if !haveRec {
		return r, errors.New("no run record line")
	}
	if err := json.Unmarshal([]byte(last), &r.res); err != nil {
		return r, fmt.Errorf("last line is not a result: %w", err)
	}
	return r, nil
}

// verdict compares one metric's runs of the parent (base) and the
// change (next). bound < 0 means the metric has none.
type verdict struct {
	baseQ, nextQ [3]float64 // q1, median, q3
	change       float64    // relative change of the median, + = worse; NaN from a zero base
	text         string
	regression   bool
}

// judge is the compare rule. Zero is handled before any division: two
// zero medians are the same, and a move away from a zero base is
// reported as a direction without a relative size.
func judge(base, next []float64, lowerBetter bool, bound float64) verdict {
	var v verdict
	v.baseQ = quarts(base)
	v.nextQ = quarts(next)
	bm, nm := v.baseQ[1], v.nextQ[1]
	worse := func(a, b float64) bool { // b worse than a
		if lowerBetter {
			return b > a
		}
		return b < a
	}
	if bm == 0 {
		v.change = math.NaN()
		switch {
		case nm == 0:
			v.text = "same (both zero)"
		case worse(bm, nm):
			v.text = "worse (from zero)"
			v.regression = bound >= 0
		default:
			v.text = "better (from zero)"
		}
		return v
	}
	v.change = (nm - bm) / math.Abs(bm)
	if !lowerBetter {
		v.change = -v.change
	}
	if bound < 0 {
		v.text = "no bound"
		return v
	}
	spread := (v.baseQ[2] - v.baseQ[0]) / math.Abs(bm)
	allBetter := true
	for _, b := range base {
		for _, n := range next {
			if !worse(n, b) { // n not better than b
				allBetter = false
			}
		}
	}
	switch {
	case spread > bound && allBetter:
		v.text = "better"
	case spread > bound:
		v.text = "unresolved (spread above bound)"
	case v.change > bound:
		v.text = "WORSE"
		v.regression = true
	case -v.change > spread:
		v.text = "better"
	default:
		v.text = "same"
	}
	return v
}

// quarts is quartiles with a single run reading as all three.
func quarts(values []float64) [3]float64 {
	if q1, q2, q3, ok := quartiles(values); ok {
		return [3]float64{q1, q2, q3}
	}
	if len(values) == 1 {
		return [3]float64{values[0], values[0], values[0]}
	}
	return [3]float64{}
}

// errRegression makes compare exit non-zero after printing its table.
var errRegression = errors.New("an end-to-end metric got worse beyond its bound")

func cmdCompare(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: perfbench compare [-bench BENCHMARK.json] BASE_DIR NEW_DIR")
		fmt.Fprintln(fs.Output(), "Each directory holds saved outputs of benchmark runs, one run per file.")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return errors.New("need BASE_DIR and NEW_DIR")
	}
	def, err := loadBenchDef(*benchPath)
	if err != nil {
		return err
	}
	base, err := loadRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	next, err := loadRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	if err := sameHost(append(append([]savedRun(nil), base...), next...)); err != nil {
		return err
	}
	return compareSets(out, def, base, next)
}

// sameHost refuses runs recorded on different host shapes.
func sameHost(runs []savedRun) error {
	for _, r := range runs[1:] {
		if r.rec.Host != runs[0].rec.Host {
			return fmt.Errorf("host shape differs: %s has %+v, %s has %+v; results from different hosts are not comparable",
				runs[0].file, runs[0].rec.Host, r.file, r.rec.Host)
		}
	}
	return nil
}

func compareSets(out io.Writer, def benchDef, base, next []savedRun) error {
	type key struct {
		workload string
		trace    int
	}
	group := func(runs []savedRun) map[key][]savedRun {
		g := make(map[key][]savedRun)
		for _, r := range runs {
			k := key{r.rec.Workload, r.rec.Trace}
			g[k] = append(g[k], r)
		}
		return g
	}
	gb, gn := group(base), group(next)
	keys := make([]key, 0, len(gb))
	for k := range gb {
		if _, ok := gn[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].trace < keys[j].trace
	})
	if len(keys) == 0 {
		return errors.New("the two sets share no workload")
	}
	regressed := false
	fmt.Fprintf(out, "%-12s %-40s %-7s %12s %12s %12s %12s %8s  %s\n",
		"workload", "metric", "runs", "base_med", "base_iqr", "new_med", "new_iqr", "change", "verdict")
	for _, k := range keys {
		metrics := def.EndToEnd
		if k.trace == 1 {
			metrics = def.PerLayer
		}
		for _, m := range metrics {
			bv, nv := values(gb[k], m.Name), values(gn[k], m.Name)
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			bound := -1.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			v := judge(bv, nv, m.Better != "higher", bound)
			regressed = regressed || v.regression
			change := "n/a"
			if !math.IsNaN(v.change) {
				change = fmt.Sprintf("%+.1f%%", 100*v.change)
			}
			fmt.Fprintf(out, "%-12s %-40s %3d/%-3d %12.4g %12.4g %12.4g %12.4g %8s  %s\n",
				k.workload, m.Name+" ("+m.Unit+")", len(bv), len(nv),
				v.baseQ[1], v.baseQ[2]-v.baseQ[0], v.nextQ[1], v.nextQ[2]-v.nextQ[0], change, v.text)
		}
	}
	if regressed {
		return errRegression
	}
	return nil
}

// values collects one metric across runs.
func values(runs []savedRun, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.res.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
