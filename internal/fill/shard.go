package fill

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dummyfill/internal/density"
	"dummyfill/internal/grid"
	"dummyfill/internal/layout"
)

// This file implements the shard-parallel hierarchical density planner
// and the per-shard size+emit scheduler (DESIGN.md §11).
//
// The window grid is split into contiguous row bands ("shards"). Each
// shard assembles its slice of the global planning maps, proposes target
// densities over its own windows plus a halo ring of neighbour rows, and
// sizes/emits its windows through its own reorder buffer into its own
// output segment. A cheap top-level pass reconciles the shard proposals:
// it runs the exact global target search over the assembled maps —
// arithmetic identical to a single global plan — and enforces the global
// min/max density bounds, so the emitted geometry is byte-identical for
// every shard count. The halo-local proposals are scored against the
// reconciled plan and the worst disagreement is reported as
// Health.PlanDivergence: the error a fully local (distributed) planner
// would have committed.

// planOverlapR is the multi-window overlap factor r the planning halo is
// sized for: overlapping analysis windows are placed at offsets that are
// multiples of W/r, so a window starting inside a shard overhangs at most
// W − W/r < W past the shard border — density.PlanHaloRows(planOverlapR)
// rows of halo give a shard's local plan the full cross-border context
// those windows can see.
const planOverlapR = 2

// shard is one row band of the grid plus its canonical window range.
type shard struct {
	id     int
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
		out[i] = shard{id: i, band: b, k0: k0, k1: k1}
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

// emitRec is one buffered window emission of a non-head shard.
type emitRec struct {
	k     int
	fills []layout.Fill
}

// shardEmitter releases per-shard output segments to the sink in shard
// order. The head shard (the lowest incomplete one) emits windows
// straight to the sink; later shards buffer their (window, fills) records
// until every earlier shard has finished, at which point their segment is
// flushed and they switch to direct emission. Because shards own
// contiguous ascending window ranges and emit their own windows in
// ascending order, the sink observes the canonical strictly-increasing
// window sequence for every shard count and worker assignment. The
// emitter never blocks: out-of-order shard progress costs memory (the
// buffered fills), not stalls.
type shardEmitter struct {
	mu   sync.Mutex
	sink Sink
	head int
	segs [][]emitRec
	done []bool
	err  error
}

func newShardEmitter(sink Sink, n int) *shardEmitter {
	return &shardEmitter{sink: sink, segs: make([][]emitRec, n), done: make([]bool, n)}
}

// emit hands window k of shard id (ascending k within a shard, non-empty
// fills only) to the sink or the shard's segment buffer.
func (em *shardEmitter) emit(id, k int, fills []layout.Fill) error {
	em.mu.Lock()
	defer em.mu.Unlock()
	if em.err != nil {
		return em.err
	}
	if id == em.head {
		if err := em.sink.EmitWindow(k, fills); err != nil {
			em.err = err
			return err
		}
		return nil
	}
	em.segs[id] = append(em.segs[id], emitRec{k: k, fills: fills})
	return nil
}

// finish marks shard id complete. When the head shard completes the head
// advances past every finished shard, flushing each newly headed shard's
// buffered segment in window order.
func (em *shardEmitter) finish(id int) error {
	em.mu.Lock()
	defer em.mu.Unlock()
	if em.err != nil {
		return em.err
	}
	em.done[id] = true
	for em.head < len(em.done) && em.done[em.head] {
		em.head++
		if em.head < len(em.done) {
			if err := em.flushLocked(em.head); err != nil {
				return err
			}
		}
	}
	return nil
}

func (em *shardEmitter) flushLocked(id int) error {
	for _, r := range em.segs[id] {
		if err := em.sink.EmitWindow(r.k, r.fills); err != nil {
			em.err = err
			return err
		}
	}
	em.segs[id] = nil
	return nil
}

// sizeAndEmitSharded is the sharded final stage: every shard sizes its
// windows independently and releases them through its own path into the
// shard emitter — no cross-shard barrier, no globally shared reorder
// buffer. Two worker topologies cover the space:
//
//   - workers ≤ shards: worker i owns the chain of shards i, i+W, i+2W, …
//     Each shard is sized by exactly one worker in ascending window
//     order, so its windows reach the emitter already ordered with no
//     reorder buffer at all.
//   - workers > shards: workers are split into per-shard groups; a group
//     claims its shard's windows in ascending order and reorders them
//     through a shard-local bounded buffer, exactly like the unsharded
//     multi-worker path but scoped to the shard's window range.
//
// Either way a worker owns one sizing scratch for its whole lifetime, so
// its solver arena is reused window to window as before; the emitted fill
// set is byte-identical across worker counts and shard counts.
func (e *Engine) sizeAndEmitSharded(ctx context.Context, wins []*window, sh []shard, td []float64, sink Sink, hc *healthCollector, start time.Time, cst *cacheState) error {
	workers := e.workerCount(len(wins))
	em := newShardEmitter(sink, len(sh))
	release := func(id, k int, fills []layout.Fill) error {
		w := wins[k]
		w.sel = nil
		for li := range w.layers {
			w.layers[li].wires = nil
		}
		if len(fills) == 0 {
			return nil
		}
		return em.emit(id, k, fills)
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		firstErr error
		once     sync.Once
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		once.Do(func() { firstErr = err })
		cancel()
	}

	if workers <= len(sh) {
		// Chained shards: one worker per chain, windows in ascending
		// order, direct (already ordered) release into the emitter.
		hc.notePeak(1)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sc := newSizeScratch(e.opts)
				for sid := i; sid < len(sh); sid += workers {
					s := sh[sid]
					var serr error
					pprof.Do(wctx, pprof.Labels("stage", "size-emit", "shard", strconv.Itoa(sid)), func(ctx context.Context) {
						for k := s.k0; k < s.k1; k++ {
							if serr = ctx.Err(); serr != nil {
								return
							}
							var fills []layout.Fill
							if fills, serr = e.produceWindow(ctx, k, wins, td, sc, hc, start, cst); serr != nil {
								return
							}
							if serr = release(sid, k, fills); serr != nil {
								return
							}
						}
						serr = em.finish(sid)
					})
					if serr != nil {
						fail(serr)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		cancel()
	} else {
		// Per-shard worker groups with shard-local reorder buffers.
		type shardRun struct {
			next atomic.Int64
			rem  atomic.Int64
			rb   *reorderBuffer
		}
		runs := make([]*shardRun, len(sh))
		for i, s := range sh {
			group := workers/len(sh) + boolToInt(i < workers%len(sh))
			capacity := 2 * group
			if capacity < 4 {
				capacity = 4
			}
			if n := s.k1 - s.k0; capacity > n {
				capacity = n
			}
			r := &shardRun{}
			sid := i
			r.rb = newReorderBuffer(capacity, func(k int, fills []layout.Fill) error {
				return release(sid, k, fills)
			})
			r.rb.base = s.k0
			r.next.Store(int64(s.k0))
			r.rem.Store(int64(s.k1 - s.k0))
			runs[i] = r
		}

		// Abort watcher: wakes group workers blocked on a full shard
		// buffer when the run is cancelled or a sibling failed.
		watcherDone := make(chan struct{})
		go func() {
			defer close(watcherDone)
			<-wctx.Done()
			for _, r := range runs {
				r.rb.abort(context.Cause(wctx))
			}
		}()

		for sid := range sh {
			group := workers/len(sh) + boolToInt(sid < workers%len(sh))
			for g := 0; g < group; g++ {
				wg.Add(1)
				go func(sid int) {
					defer wg.Done()
					s, r := sh[sid], runs[sid]
					sc := newSizeScratch(e.opts)
					pprof.Do(wctx, pprof.Labels("stage", "size-emit", "shard", strconv.Itoa(sid)), func(ctx context.Context) {
						for ctx.Err() == nil {
							k := int(r.next.Add(1)) - 1
							if k >= s.k1 {
								return
							}
							fills, err := e.produceWindow(ctx, k, wins, td, sc, hc, start, cst)
							if err == nil {
								err = r.rb.deliver(k, fills)
							}
							if err != nil {
								fail(err)
								return
							}
							if r.rem.Add(-1) == 0 {
								// Last delivered window of the shard: every
								// release ran (they happen under the buffer
								// lock before the final deliver returns).
								if err := em.finish(sid); err != nil {
									fail(err)
									return
								}
							}
						}
					})
				}(sid)
			}
		}
		wg.Wait()
		cancel()
		<-watcherDone
		for _, r := range runs {
			hc.notePeak(r.rb.peak)
		}
	}

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
