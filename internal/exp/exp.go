// Package exp runs the paper's experiments as a library: structured rows
// for Table 2 (benchmark statistics), Table 3 (method comparison), the
// Fig. 6 worked example and the CMP-motivation study, plus text / CSV /
// Markdown renderers. cmd/repro is a thin wrapper around this package so
// the experiment logic itself is unit-tested.
package exp

import (
	"context"
	"fmt"

	dummyfill "dummyfill"
	"dummyfill/internal/cmppad"
	"dummyfill/internal/dlp"
	"dummyfill/internal/fill"
	"dummyfill/internal/gdsii"
	"dummyfill/internal/layout"
	"dummyfill/internal/score"
	"dummyfill/internal/synth"
)

// Table2Row is one design's statistics and coefficients.
type Table2Row struct {
	Design    string
	Shapes    int
	Layers    int
	FileSizeB int64
	Coeffs    score.Coefficients
}

// Table2 generates the designs and calibrates their coefficients.
func Table2(designs []string) ([]Table2Row, error) {
	var out []Table2Row
	for _, n := range designs {
		sp, err := synth.ByName(n)
		if err != nil {
			return nil, err
		}
		lay, err := synth.Generate(sp)
		if err != nil {
			return nil, err
		}
		c, err := synth.Coefficients(sp, lay)
		if err != nil {
			return nil, err
		}
		sz, err := gdsii.FromLayout(lay, nil).EncodedSize()
		if err != nil {
			return nil, err
		}
		out = append(out, Table2Row{
			Design: sp.Name, Shapes: lay.NumShapes(), Layers: len(lay.Layers),
			FileSizeB: sz, Coeffs: c,
		})
	}
	return out, nil
}

// Table3Row is one (design, method) evaluation. Health is set only for
// the engine method ("ours"); the baselines have no degradation modes.
type Table3Row struct {
	Design string
	Method string
	Report *score.Report
	Fills  int
	Health *fill.Health
}

// Table3 runs every method on every design.
func Table3(designs []string, opts fill.Options) ([]Table3Row, error) {
	return Table3Ctx(context.Background(), designs, opts)
}

// Design is one ready-to-run evaluation input: a layout plus its
// calibrated score coefficients. Table3Ctx builds these from the
// synthetic suite; callers with external layouts (ingested GDSII/OASIS/
// text files) construct their own.
type Design struct {
	Name   string
	Lay    *layout.Layout
	Coeffs score.Coefficients
}

// Table3Ctx is Table3 under a context: cancellation aborts between (and,
// for the engine, inside) method runs.
func Table3Ctx(ctx context.Context, designs []string, opts fill.Options) ([]Table3Row, error) {
	ds := make([]Design, 0, len(designs))
	for _, n := range designs {
		sp, err := synth.ByName(n)
		if err != nil {
			return nil, err
		}
		lay, err := synth.Generate(sp)
		if err != nil {
			return nil, err
		}
		coeffs, err := synth.Coefficients(sp, lay)
		if err != nil {
			return nil, err
		}
		ds = append(ds, Design{Name: n, Lay: lay, Coeffs: coeffs})
	}
	return Table3Designs(ctx, ds, opts)
}

// Table3Designs runs every method of dummyfill.AllMethods on every
// pre-built design through dummyfill.RunMethodContext, which measures
// runtime and peak heap and scores the result.
func Table3Designs(ctx context.Context, designs []Design, opts fill.Options) ([]Table3Row, error) {
	var out []Table3Row
	for _, d := range designs {
		for _, m := range dummyfill.AllMethods(opts) {
			rep, sol, health, err := dummyfill.RunMethodContext(ctx, m, d.Lay, d.Coeffs)
			if err != nil {
				return nil, fmt.Errorf("design %s: %w", d.Name, err)
			}
			out = append(out, Table3Row{
				Design: d.Name, Method: m.Name,
				Report: rep, Fills: len(sol.Fills), Health: health,
			})
		}
	}
	return out, nil
}

// Fig6Result is one solver's answer to the worked example.
type Fig6Result struct {
	Solver    string
	X         []int64
	Objective int64
}

// Fig6 solves the paper's worked example with both dual-MCF backends.
func Fig6() ([]Fig6Result, error) {
	build := func() *dlp.Problem {
		p := dlp.NewProblem(4, 10)
		p.C = []int64{1, 2, 3, 4}
		p.AddConstraint(0, 1, 5)
		p.AddConstraint(3, 2, 6)
		return p
	}
	var out []Fig6Result
	for _, s := range []struct {
		name string
		sv   dlp.Solver
	}{{"SSP", dlp.SSP}, {"NetworkSimplex", dlp.NetworkSimplex}} {
		x, obj, err := build().SolveWith(s.sv)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig6Result{Solver: s.name, X: x, Objective: obj})
	}
	return out, nil
}

// CMPRow is one (design, layer) planarity comparison.
type CMPRow struct {
	Design      string
	Layer       int
	RangeBefore float64
	RangeAfter  float64
	Improvement float64
}

// CMP runs the planarity motivation study.
func CMP(designs []string, opts fill.Options, params cmppad.Params) ([]CMPRow, error) {
	var out []CMPRow
	for _, n := range designs {
		sp, err := synth.ByName(n)
		if err != nil {
			return nil, err
		}
		lay, err := synth.Generate(sp)
		if err != nil {
			return nil, err
		}
		e, err := fill.New(lay, opts)
		if err != nil {
			return nil, err
		}
		res, err := e.Run()
		if err != nil {
			return nil, err
		}
		_, _, _, before, err := score.MeasureDensity(lay, &layout.Solution{})
		if err != nil {
			return nil, err
		}
		_, _, _, after, err := score.MeasureDensity(lay, &res.Solution)
		if err != nil {
			return nil, err
		}
		for li := range lay.Layers {
			pb, err := cmppad.Evaluate(before[li], params)
			if err != nil {
				return nil, err
			}
			pa, err := cmppad.Evaluate(after[li], params)
			if err != nil {
				return nil, err
			}
			imp := 0.0
			if pa.Range > 0 {
				imp = pb.Range / pa.Range
			}
			out = append(out, CMPRow{
				Design: n, Layer: li,
				RangeBefore: pb.Range, RangeAfter: pa.Range, Improvement: imp,
			})
		}
	}
	return out, nil
}
