// Package dummyfill is a high-performance dummy fill insertion and sizing
// framework with coupling (overlay) and uniformity constraints — a
// from-scratch Go reproduction of Lin, Yu & Pan, "High Performance Dummy
// Fill Insertion with Coupling and Uniformity Constraints" (DAC 2015).
//
// The flow (Fig. 3 of the paper):
//
//	input fill regions → target density planning → candidate fill
//	generation (Alg. 1) → density re-planning → dummy fill sizing via
//	alternating-direction dual min-cost flow → output fills
//
// Quick start:
//
//	lay, coeffs, _ := dummyfill.GenerateBenchmark("s")
//	res, _ := dummyfill.Insert(lay, dummyfill.DefaultOptions())
//	report, _ := dummyfill.Score(lay, &res.Solution, coeffs, dummyfill.Measured{})
//	fmt.Println(report)
//
// The package re-exports the building blocks (geometry, density analysis,
// GDSII IO, DRC, scoring, baseline fillers) so downstream tools can
// compose their own flows.
package dummyfill

import (
	"context"
	"fmt"
	"io"
	"time"

	"dummyfill/internal/baseline"
	"dummyfill/internal/drc"
	"dummyfill/internal/fill"
	"dummyfill/internal/fillcache"
	"dummyfill/internal/gdsii"
	"dummyfill/internal/geom"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
	"dummyfill/internal/oasis"
	"dummyfill/internal/score"
	"dummyfill/internal/synth"
)

// Core type aliases: the public API of the framework.
type (
	// Layout is a multi-layer design with wires and feasible fill regions.
	Layout = layout.Layout
	// Layer holds one routing layer's wires and fill regions.
	Layer = layout.Layer
	// Rules is the fill DRC rule set (min width/spacing/area, max dim).
	Rules = layout.Rules
	// Fill is one inserted dummy fill shape.
	Fill = layout.Fill
	// Solution is a complete fill assignment.
	Solution = layout.Solution
	// Rect is an integer rectangle in database units.
	Rect = geom.Rect
	// Point is an integer point in database units.
	Point = geom.Point
	// Options tunes the fill engine (λ, γ, η, solver, parallelism,
	// time budget, fault injection).
	Options = fill.Options
	// Result is the engine output (solution + planning diagnostics +
	// health).
	Result = fill.Result
	// Health reports how gracefully a run completed: solver fallback
	// counts, degraded/skipped windows, recovered panics, budget use.
	Health = fill.Health
	// Coefficients are the α/β contest scoring parameters.
	Coefficients = score.Coefficients
	// Report is a fully scored solution (one Table 3 row).
	Report = score.Report
	// Violation is a DRC error found in a solution.
	Violation = drc.Violation
	// FillSink consumes sized fills window by window during a streaming
	// run (InsertStream): EmitWindow is called in canonical window order.
	FillSink = fill.Sink
	// FillSinkFunc adapts a function to a FillSink.
	FillSinkFunc = fill.SinkFunc
	// FillCache is a persistent content-addressed cache of per-window
	// fill results, enabling incremental (ECO) re-fill: assign one to
	// Options.Cache and unchanged windows replay their previous fills
	// byte-identically instead of being re-solved. See OpenFillCache.
	FillCache = fillcache.Cache
	// FillCacheStats is a point-in-time snapshot of a FillCache's
	// hit/miss/corruption counters.
	FillCacheStats = fillcache.Stats
	// SiteGrid is a standard-cell placement lattice (rows × sites); a
	// Layout carrying one can run the site fill mode.
	SiteGrid = layout.SiteGrid
	// FillLib is a discrete filler-cell master library: the legal
	// site-mode fill widths and their master naming.
	FillLib = layout.FillLib
)

// Fill mode names for Options.Mode: the paper's continuous-rect mode and
// the site-grid filler-cell placement mode.
const (
	ModeRect = fill.ModeRect
	ModeSite = fill.ModeSite
)

// DefaultFillLib returns the power-of-two filler master library
// (FILL_X1 … FILL_X32) used when Options.SiteLib is nil.
func DefaultFillLib() *FillLib { return layout.DefaultFillLib() }

// R constructs a rectangle, normalizing swapped bounds.
func R(xl, yl, xh, yh int64) Rect { return geom.R(xl, yl, xh, yh) }

// DefaultOptions returns the engine parameters used in the paper's
// experiments where stated (γ = 1, η = 1).
func DefaultOptions() Options { return fill.DefaultOptions() }

// OpenFillCache opens (creating it if needed) a persistent fill cache
// rooted at dir. Assign the result to Options.Cache: windows whose
// content, rules and plan targets match a cached entry skip candidate
// generation and sizing and replay their stored fills byte-identically;
// everything else is recomputed and written back. The cache is safe for
// concurrent use and survives corruption (damaged entries are detected
// and recomputed). See DESIGN.md §13.
func OpenFillCache(dir string) (*FillCache, error) { return fillcache.Open(dir) }

// Insert runs the full fill insertion flow on a layout.
func Insert(lay *Layout, opts Options) (*Result, error) {
	return InsertContext(context.Background(), lay, opts)
}

// InsertContext is Insert under a context. Cancellation is a hard abort
// with no partial Result; for a graceful time limit that still returns a
// complete, DRC-clean solution, set Options.Budget instead and inspect
// Result.Health.
func InsertContext(ctx context.Context, lay *Layout, opts Options) (*Result, error) {
	e, err := fill.New(lay, opts)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx)
}

// InsertStream runs the flow like InsertContext but streams each window's
// sized fills to sink in canonical window order instead of assembling
// them into Result.Solution (left empty). The emitted fill set is
// identical to InsertContext's for any Options.Workers value; only the
// grouping (per window, window-ordered, not globally sorted) differs.
// Combined with a streaming writer this bounds peak memory: no run stage
// holds every candidate or every sized fill at once.
func InsertStream(ctx context.Context, lay *Layout, opts Options, sink FillSink) (*Result, error) {
	e, err := fill.New(lay, opts)
	if err != nil {
		return nil, err
	}
	return e.RunStream(ctx, sink)
}

// InsertStreamTo runs the flow and writes the result directly to w in
// the named format (see Formats), each window's fills emitted as soon as
// the window clears the reorder buffer. Formats that carry wires (GDSII)
// get the layout's wires first (datatype 0), then fills (datatype 1);
// fills-only formats (OASIS, text solutions) get just the fills. OASIS
// modal compression then runs over the per-window size grouping instead
// of WriteOASIS's global size sort: a slightly larger file for bounded
// memory. The output is deterministic for any Options.Workers and
// Options.Shards values: fills appear in canonical window order. Combined
// with a streaming reader this bounds peak memory end to end: no stage
// holds every candidate or sized fill.
func InsertStreamTo(ctx context.Context, w io.Writer, lay *Layout, opts Options, format string) (*Result, error) {
	f, err := layio.Lookup(format)
	if err != nil {
		return nil, err
	}
	e, err := fill.New(lay, opts)
	if err != nil {
		return nil, err
	}
	sw, err := f.NewShapeWriter(w, layio.Header{Name: lay.Name, Struct: "TOP", Die: lay.Die, Sites: lay.Sites})
	if err != nil {
		return nil, err
	}
	if f.EmitsWires {
		n := 0
		for li, layer := range lay.Layers {
			for _, wr := range layer.Wires {
				// Re-check cancellation periodically: the wire preamble of a
				// large design is written before the engine (which polls ctx
				// itself) ever runs.
				if n%1024 == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				n++
				if err := sw.Write(layio.Shape{Layer: li, Datatype: layio.DatatypeWire, Rect: wr}); err != nil {
					return nil, err
				}
			}
		}
	}
	res, err := e.RunStream(ctx, FillSinkFunc(func(_ int, fills []Fill) error {
		for _, f := range fills {
			if err := sw.Write(layio.Shape{Layer: f.Layer, Datatype: layio.DatatypeFill, Rect: f.Rect}); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}
	if err := sw.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

// CheckDRC verifies a solution against the layout's fill rules, including
// containment in the declared fill regions.
func CheckDRC(lay *Layout, sol *Solution) []Violation {
	return drc.Check(lay, sol, true)
}

// CheckSiteDRC verifies a site-mode solution against the layout's
// placement lattice: site alignment, master-library widths, and the
// padding clearance (in sites) to same-row wires. Run it alongside
// CheckDRC, which covers the geometric overlap rules.
func CheckSiteDRC(lay *Layout, sol *Solution, lib *FillLib, pad int) []Violation {
	return drc.CheckSites(lay, sol, lib, pad)
}

// Measured carries the environment-dependent raw measurements of a run.
// Zero values are allowed (the corresponding scores then read as perfect;
// use RunMethod to measure for real).
type Measured struct {
	FileSizeBytes int64
	Runtime       time.Duration
	MemoryMiB     float64
}

// Score measures the geometric metrics of a solution and combines them
// with the supplied environment measurements into a contest-score report.
func Score(lay *Layout, sol *Solution, c Coefficients, m Measured) (*Report, error) {
	raw, err := score.Measure(lay, sol, m.FileSizeBytes, m.Runtime.Seconds(), m.MemoryMiB)
	if err != nil {
		return nil, err
	}
	return score.Score(raw, c), nil
}

// WriteGDS emits the layout plus solution as a GDSII stream (wires
// datatype 0, fills datatype 1).
func WriteGDS(w io.Writer, lay *Layout, sol *Solution) error {
	return gdsii.FromLayout(lay, sol).Write(w)
}

// GDSSize returns the byte size of the solution GDSII (fills only) — the
// contest's file-size metric — without materializing the file.
func GDSSize(lay *Layout, sol *Solution) (int64, error) {
	return gdsii.FromSolution(lay.Name, sol).EncodedSize()
}

// OASISSize returns the byte size of the solution encoded as OASIS with
// modal-variable compression — the alternative interchange format the
// paper names alongside GDSII. Comparing it with GDSSize shows how much
// of the file-size cost is the shape count itself versus the encoding.
func OASISSize(lay *Layout, sol *Solution) (int64, error) {
	return oasis.FromSolution(lay.Name, sol).EncodedSize()
}

// WriteOASIS emits the solution as an OASIS stream.
func WriteOASIS(w io.Writer, lay *Layout, sol *Solution) error {
	return oasis.FromSolution(lay.Name, sol).Write(w)
}

// ReadGDSShapes parses a GDSII stream and returns per-layer wire and fill
// rectangles (datatype 0 = wires, 1 = fills; polygons are decomposed).
// The stream is consumed incrementally — no intermediate library is
// materialized.
func ReadGDSShapes(r io.Reader) (wires, fills map[int][]Rect, err error) {
	sr := gdsii.NewShapeReader(r, gdsii.DefaultLimits())
	wires, fills = map[int][]Rect{}, map[int][]Rect{}
	for {
		s, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if s.Datatype == gdsii.DatatypeFill {
			fills[s.Layer] = append(fills[s.Layer], s.Rect)
		} else {
			wires[s.Layer] = append(wires[s.Layer], s.Rect)
		}
	}
	return wires, fills, nil
}

// GenerateBenchmark builds one of the synthetic contest-style designs
// ("s", "b" or "m") together with its calibrated score coefficients.
func GenerateBenchmark(name string) (*Layout, Coefficients, error) {
	sp, err := synth.ByName(name)
	if err != nil {
		return nil, Coefficients{}, err
	}
	lay, err := synth.Generate(sp)
	if err != nil {
		return nil, Coefficients{}, err
	}
	c, err := synth.Coefficients(sp, lay)
	if err != nil {
		return nil, Coefficients{}, err
	}
	return lay, c, nil
}

// Calibrate computes a contest-style α/β score table for an arbitrary
// layout (the synthetic designs come pre-calibrated via
// GenerateBenchmark). Runtime/memory βs are the caller's budget.
func Calibrate(lay *Layout, betaRuntimeSec, betaMemoryMiB float64) (Coefficients, error) {
	return synth.Calibrate(lay, betaRuntimeSec, betaMemoryMiB)
}

// Method is one fill approach under comparison.
type Method struct {
	Name string
	Run  func(*Layout) (*Solution, error)
	// RunContext, when set, is the cancellable, health-reporting variant
	// used by RunMethodContext. Ours sets it; the baselines solve without
	// a solver chain and report no health.
	RunContext func(ctx context.Context, lay *Layout) (*Solution, *Health, error)
}

// Ours returns the paper's method as a Method.
func Ours(opts Options) Method {
	runCtx := func(ctx context.Context, lay *Layout) (*Solution, *Health, error) {
		res, err := InsertContext(ctx, lay, opts)
		if err != nil {
			return nil, nil, err
		}
		return &res.Solution, &res.Health, nil
	}
	return Method{
		Name: "ours",
		Run: func(lay *Layout) (*Solution, error) {
			sol, _, err := runCtx(context.Background(), lay)
			return sol, err
		},
		RunContext: runCtx,
	}
}

// Baselines returns the three traditional methods (the contest top-3
// stand-ins): tile-based LP, Monte-Carlo and greedy.
func Baselines() []Method {
	fillers := []baseline.Filler{
		baseline.TileLP{},
		baseline.MonteCarlo{Seed: 42},
		baseline.CouplingConstrained{},
		baseline.Greedy{},
	}
	out := make([]Method, 0, len(fillers))
	for _, f := range fillers {
		f := f
		out = append(out, Method{Name: f.Name(), Run: f.Fill})
	}
	return out
}

// AllMethods is Ours followed by Baselines.
func AllMethods(opts Options) []Method {
	return append([]Method{Ours(opts)}, Baselines()...)
}

// RunMethod executes a method on a layout, measuring wall-clock runtime,
// an approximate peak-live-heap figure and the solution GDSII size, and
// returns the scored report alongside the solution.
func RunMethod(m Method, lay *Layout, c Coefficients) (*Report, *Solution, error) {
	rep, sol, _, err := RunMethodContext(context.Background(), m, lay, c)
	return rep, sol, err
}

// RunMethodContext is RunMethod under a context, additionally returning
// the engine's health report when the method provides one (nil for the
// baselines, which have no degradation modes).
func RunMethodContext(ctx context.Context, m Method, lay *Layout, c Coefficients) (*Report, *Solution, *Health, error) {
	var sol *Solution
	var health *Health
	runtimeSec, memMiB, err := measure(func() error {
		var err error
		if m.RunContext != nil {
			sol, health, err = m.RunContext(ctx, lay)
		} else {
			if err = ctx.Err(); err == nil {
				sol, err = m.Run(lay)
			}
		}
		return err
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dummyfill: method %s: %w", m.Name, err)
	}
	sz, err := GDSSize(lay, sol)
	if err != nil {
		return nil, nil, nil, err
	}
	raw, err := score.Measure(lay, sol, sz, runtimeSec, memMiB)
	if err != nil {
		return nil, nil, nil, err
	}
	return score.Score(raw, c), sol, health, nil
}
