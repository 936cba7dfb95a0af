package experiments

import (
	"fmt"

	"arbloop/internal/strategy"
)

// Fig1Row is one sample of the Fig. 1 profit curve.
type Fig1Row struct {
	// Input is Δx_in.
	Input float64
	// Profit is Δx_out − Δx_in.
	Profit float64
	// Derivative is dΔx_out/dΔx_in (crosses 1 at the optimum).
	Derivative float64
}

// Fig1Result carries the sampled curve plus the closed-form optimum.
type Fig1Result struct {
	Rows         []Fig1Row
	OptimalInput float64
	MaxProfit    float64
}

// Fig1 samples the Section V loop's profit curve for Δx_in ∈ [0, 30]
// (the paper's axis) and marks the stationary point F'(Δ*) = 1.
func Fig1(points int) (Fig1Result, error) {
	if points < 2 {
		return Fig1Result{}, fmt.Errorf("experiments: fig1 needs ≥ 2 points, got %d", points)
	}
	loop, err := PaperExampleLoop()
	if err != nil {
		return Fig1Result{}, err
	}
	m, err := loop.Mobius()
	if err != nil {
		return Fig1Result{}, err
	}
	const maxInput = 30.0
	rows := make([]Fig1Row, 0, points)
	for i := 0; i < points; i++ {
		d := maxInput * float64(i) / float64(points-1)
		rows = append(rows, Fig1Row{
			Input:      d,
			Profit:     m.ProfitAt(d),
			Derivative: m.Deriv(d),
		})
	}
	return Fig1Result{
		Rows:         rows,
		OptimalInput: m.OptimalInput(),
		MaxProfit:    m.MaxProfit(),
	}, nil
}

// SweepRow is one P_x sample of the Figs. 2–4 sweep.
type SweepRow struct {
	// Px is token X's CEX price.
	Px float64
	// StartX/StartY/StartZ are the monetized profits of the three
	// traditional starts.
	StartX, StartY, StartZ float64
	// MaxMax is max(StartX, StartY, StartZ) (paper eq. 6).
	MaxMax float64
	// MaxPrice is the monetized profit starting from the highest-priced
	// token.
	MaxPrice float64
	// Convex is the ConvexOptimization monetized profit.
	Convex float64
	// NetX/NetY/NetZ are the convex plan's net token amounts (Fig. 4).
	NetX, NetY, NetZ float64
}

// PxSweep runs the paper's P_x ∈ [0, 20] sweep (step 0.2 by default,
// matching Fig. 4's caption) over the Section V loop. Figs. 2, 3 and 4
// are different projections of these rows.
func PxSweep(step float64) ([]SweepRow, error) {
	if step <= 0 {
		step = 0.2
	}
	loop, err := PaperExampleLoop()
	if err != nil {
		return nil, err
	}
	var rows []SweepRow
	for px := 0.0; px <= 20.0+1e-9; px += step {
		prices := strategy.PriceMap{"X": px, "Y": 10.2, "Z": 20}

		all, err := strategy.TraditionalAll(loop, prices)
		if err != nil {
			return nil, err
		}
		byStart := map[string]float64{}
		for _, r := range all {
			byStart[r.StartToken] = r.Monetized
		}
		mm, err := strategy.MaxMax(loop, prices)
		if err != nil {
			return nil, err
		}
		mp, err := strategy.MaxPrice(loop, prices)
		if err != nil {
			return nil, err
		}
		cv, err := strategy.Convex(loop, prices)
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep Px=%.2f: %w", px, err)
		}
		rows = append(rows, SweepRow{
			Px:       px,
			StartX:   byStart["X"],
			StartY:   byStart["Y"],
			StartZ:   byStart["Z"],
			MaxMax:   mm.Monetized,
			MaxPrice: mp.Monetized,
			Convex:   cv.Monetized,
			NetX:     cv.NetTokens["X"],
			NetY:     cv.NetTokens["Y"],
			NetZ:     cv.NetTokens["Z"],
		})
	}
	return rows, nil
}

// Fig2 projects the sweep onto the Fig. 2 series (per-start + MaxMax).
func Fig2(step float64) ([]SweepRow, error) { return PxSweep(step) }

// Fig3 projects the sweep onto the Fig. 3 series (MaxMax vs Convex).
func Fig3(step float64) ([]SweepRow, error) { return PxSweep(step) }

// Fig4 projects the sweep onto the Fig. 4 series (net token composition).
func Fig4(step float64) ([]SweepRow, error) { return PxSweep(step) }
