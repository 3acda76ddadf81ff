package fill

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"

	"dummyfill/internal/density"
	"dummyfill/internal/grid"
)

// This file implements the shard-parallel hierarchical density planner
// (DESIGN.md §11).
//
// The window grid is split into contiguous row bands ("shards"). Each
// shard assembles its slice of the global planning maps and proposes
// target densities over its own windows plus a halo ring of neighbour
// rows. Shards partition planning only: sizing and emission run through
// the one global reorder buffer (sizeAndEmit) for every shard count. A
// cheap top-level pass reconciles the shard proposals: it runs the exact
// global target search over the assembled maps — arithmetic identical to
// a single global plan — and enforces the global min/max density bounds,
// so the emitted geometry is byte-identical for every shard count. The
// halo-local proposals are scored against the reconciled plan and the
// worst disagreement is reported as Health.PlanDivergence: the error a
// fully local (distributed) planner would have committed.

// planOverlapR is the multi-window overlap factor r the planning halo is
// sized for: overlapping analysis windows are placed at offsets that are
// multiples of W/r, so a window starting inside a shard overhangs at most
// W − W/r < W past the shard border — density.PlanHaloRows(planOverlapR)
// rows of halo give a shard's local plan the full cross-border context
// those windows can see.
const planOverlapR = 2

// shard is one row band of the grid plus its canonical window range.
type shard struct {
	band   grid.Band
	k0, k1 int // half-open canonical window index range
}

// shards resolves Options.Shards into the run's band decomposition:
// one shard per core by default, never more than the grid has rows. The
// decomposition depends only on the grid and the option value, never on
// scheduling.
func (e *Engine) shards() []shard {
	n := e.opts.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	bands := e.g.Bands(n)
	out := make([]shard, len(bands))
	for i, b := range bands {
		k0, k1 := b.WindowRange(e.g)
		out[i] = shard{band: b, k0: k0, k1: k1}
	}
	return out
}

// assembleBounds builds the global per-layer planning bounds shard-
// parallel: each shard writes only its own contiguous window range of the
// shared maps, so the assembly needs no locks and the resulting values
// are identical to a serial pass for every shard count. When selected is
// false the upper bound uses the closed-form tileable area of the free
// pieces (round 1) and the per-layer wire-density maps are returned too;
// when true it uses the area of the selected candidates (round 2, wd nil).
// In round 2 a cache-hit window has no selection — its per-layer selected
// area comes from the cache entry, which recorded exactly what candgen
// would have produced, so the assembled bounds (and hence the round-2
// plan) are bit-identical to a cold run's.
func (e *Engine) assembleBounds(ctx context.Context, wins []*window, sh []shard, selected bool, stage string, cst *cacheState) (bounds []density.LayerBounds, wd []*grid.Map, err error) {
	nl := len(e.lay.Layers)
	bounds = make([]density.LayerBounds, nl)
	for li := 0; li < nl; li++ {
		bounds[li] = density.LayerBounds{Lower: grid.NewMap(e.g), Upper: grid.NewMap(e.g)}
	}
	if !selected {
		wd = make([]*grid.Map, nl)
		for li := 0; li < nl; li++ {
			wd[li] = grid.NewMap(e.g)
		}
	}
	err = e.parallelFor(ctx, len(sh), func(ctx context.Context, i int) error {
		pprof.Do(ctx, pprof.Labels("stage", stage, "shard", strconv.Itoa(i)), func(context.Context) {
			s := sh[i]
			selArea := make([]int64, nl)
			for k := s.k0; k < s.k1; k++ {
				w := wins[k]
				aw := float64(w.rect.Area())
				if aw == 0 {
					continue
				}
				if selected {
					if cst.selValid(k) {
						copy(selArea, cst.entries[k].SelArea)
					} else {
						for li := range selArea {
							selArea[li] = 0
						}
						for _, c := range w.sel {
							selArea[c.layer] += c.rect.Area()
						}
					}
				}
				for li := 0; li < nl; li++ {
					wl := w.layers[li]
					var fillable int64
					if selected {
						fillable = selArea[li]
					} else {
						// Closed-form tileable area per free piece — no
						// cell materialization.
						for _, fr := range wl.free {
							fillable += e.mode.fillableArea(fr)
						}
					}
					bounds[li].Lower.V[k] = float64(wl.wireArea) / aw
					bounds[li].Upper.V[k] = float64(wl.wireArea+fillable) / aw
					if wd != nil {
						wd[li].V[k] = float64(wl.wireArea) / aw
					}
				}
			}
		})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return bounds, wd, nil
}

// shardProposals runs one planning round locally on every shard: target
// search over the shard's windows plus the halo ring, weighted either by
// the global plan weights pw (round 2) or, when wdLocal is non-nil, by
// weights derived from the shard+halo wire densities alone (round 1 — a
// fully local plan, as a distributed planner would compute it). The
// proposals are advisory: the reconcile pass discards them after scoring
// their divergence, so they never influence the emitted geometry.
func (e *Engine) shardProposals(ctx context.Context, sh []shard, bounds []density.LayerBounds, wdLocal []*grid.Map, pw density.PlanWeights, stage string) ([]*density.Plan, error) {
	props := make([]*density.Plan, len(sh))
	err := e.parallelFor(ctx, len(sh), func(ctx context.Context, i int) error {
		var perr error
		pprof.Do(ctx, pprof.Labels("stage", stage, "shard", strconv.Itoa(i)), func(context.Context) {
			halo := sh[i].band.Halo(e.g, density.PlanHaloRows(planOverlapR))
			lb := make([]density.LayerBounds, len(bounds))
			for li := range bounds {
				lb[li] = density.LayerBounds{
					Lower: bounds[li].Lower.Rows(halo),
					Upper: bounds[li].Upper.Rows(halo),
				}
			}
			w := pw
			if wdLocal != nil {
				views := make([]*grid.Map, len(wdLocal))
				for li := range wdLocal {
					views[li] = wdLocal[li].Rows(halo)
				}
				w = e.planWeights(views)
			}
			p, err := density.PlanTargets(lb, w, e.opts.PlanSteps)
			if err != nil {
				perr = err
				return
			}
			e.applyMinDensity(p.Td)
			props[i] = p
		})
		return perr
	})
	if err != nil {
		return nil, err
	}
	return props, nil
}
