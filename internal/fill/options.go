// Package fill implements the paper's dummy fill insertion framework
// (Fig. 3): window-level target density planning, candidate fill
// generation with overlay awareness (Alg. 1), and fill sizing via
// alternating-direction dual min-cost flow (§3.3).
package fill

import (
	"time"

	"dummyfill/internal/dlp"
	"dummyfill/internal/faultinject"
	"dummyfill/internal/fillcache"
	"dummyfill/internal/layout"
)

// Options tune the engine. The zero value is not usable; start from
// DefaultOptions.
type Options struct {
	// Mode selects the fill-mode strategy. ModeRect (also the empty
	// string) is the paper's continuous mode: rectangles tiled from free
	// space, shrunk continuously by the sizing LP. ModeSite is filler-cell
	// placement: candidates snap to the layout's placement rows/sites and
	// widths come from the discrete SiteLib master library; it requires
	// Layout.Sites. Both modes share the planner and the reorder buffer,
	// so the byte-identical determinism contract holds for each.
	Mode string
	// SitePad is the site-mode padding constraint, in sites: fillers keep
	// at least SitePad empty sites between themselves and any placed cell
	// or wire on the same row (OpenROAD's filler padding). Ignored by
	// ModeRect.
	SitePad int
	// SiteLib is the site-mode filler master library (nil = the
	// power-of-two DefaultFillLib). Ignored by ModeRect.
	SiteLib *layout.FillLib
	// Lambda is the candidate overfill factor λ ≥ 1 of Alg. 1: candidates
	// are generated until each window reaches λ·(target density).
	Lambda float64
	// Gamma is the γ weight of the candidate quality score (Eqn. 8).
	Gamma float64
	// Eta is the overlay weight η in the sizing objective (Eqn. 9a).
	Eta int64
	// PlanSteps is the search resolution of Case-II target density
	// planning (§3.1).
	PlanSteps int
	// MaxSizingPasses bounds the alternating H/V sizing iterations.
	MaxSizingPasses int
	// Solver solves the per-direction difference-constraint LPs. When set
	// it overrides NewSolver; dlp.ViaSSP, dlp.ViaNetworkSimplex and the
	// dense-simplex dlp.ViaSimplexLP are drop-in choices for ablation
	// studies. Leave nil to use NewSolver (the default).
	Solver dlp.PSolver
	// NewSolver supplies a fresh LP solver per worker, letting stateful
	// solvers reuse buffers across the windows a worker sizes without any
	// cross-worker sharing. DefaultOptions uses dlp.NewWarmSSP, the dual
	// min-cost-flow solver with a per-worker arena; a non-nil Solver takes
	// precedence (it is assumed stateless and safe for concurrent use).
	NewSolver func() dlp.PSolver
	// Workers bounds window-level parallelism (0 = GOMAXPROCS).
	Workers int
	// Shards is the number of row-band shards the window grid is split
	// into for hierarchical density planning (0 = one per core, capped by
	// the number of window rows). Each shard assembles its slice of the
	// planning bounds and proposes targets from its own windows plus a
	// halo ring of neighbour rows; a cheap top-level pass reconciles the
	// proposals into the global targets. Sizing and emission ignore
	// shards: every window goes through one reorder buffer. The emitted
	// fill set is byte-identical for every Shards value; only the
	// planning schedule and Health.PlanDivergence change.
	Shards int
	// MinDensity is an optional lower density rule: planned targets are
	// floored at this value (0 disables). Foundry fill decks typically
	// require a minimum metal density per window; the contest objective
	// alone would happily leave an empty layer empty.
	MinDensity float64
	// MaxAspect is an optional lithography-friendliness rule (the paper's
	// stated future work): fills are sized toward an aspect ratio of at
	// most MaxAspect where shrinking suffices to achieve it (fills can
	// only shrink, so a cell already thinner than 1/MaxAspect stays as
	// is). 0 disables.
	MaxAspect float64
	// Budget is a soft per-run time budget (0 = unlimited). When it
	// expires mid-run, remaining windows skip LP sizing and emit their
	// candidates unshrunk — still DRC-clean — and the run completes with
	// Result.Health.BudgetExceeded set instead of failing. Contrast with
	// cancelling the RunContext context, which aborts the run with no
	// Result. Negative values are rejected by New: a negative budget is
	// always a caller bug (an elapsed deadline subtraction gone wrong),
	// and silently treating it as unlimited would invert the intent.
	Budget time.Duration
	// Inject enables deterministic fault injection at the engine's solver
	// and sizing sites — a test harness for the degradation paths. Nil
	// (the default) injects nothing.
	Inject *faultinject.Injector
	// Cache enables the persistent content-addressed window cache for
	// incremental (ECO) re-fill: windows whose content and plan targets
	// match a previous run skip candidate generation and sizing and
	// replay the stored fills, byte-identical to a cold run (DESIGN.md
	// §13). Nil (the default) disables caching. The cache is best-effort:
	// corrupt or unwritable entries cost time, never correctness, and
	// are counted in Health.CacheErrors. Runs that inject engine-level
	// faults bypass the cache so fault patterns stay deterministic.
	Cache *fillcache.Cache
}

// DefaultOptions returns the parameters used in the paper's experiments
// where stated (γ = 1, η = 1) and sensible defaults elsewhere.
func DefaultOptions() Options {
	return Options{
		Lambda:          1.15,
		Gamma:           1,
		Eta:             1,
		PlanSteps:       24,
		MaxSizingPasses: 6,
		NewSolver:       dlp.NewWarmSSP,
	}
}

// newSolver resolves the effective per-worker solver: an explicit Solver
// wins, otherwise a fresh instance from the NewSolver factory.
func (o Options) newSolver() dlp.PSolver {
	if o.Solver != nil {
		return o.Solver
	}
	return o.NewSolver()
}
