package fill

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dummyfill/internal/faultinject"
	"dummyfill/internal/geom"
	"dummyfill/internal/layout"
)

// collectStream runs RunStream on gradientLayout and returns the emitted
// window indices and the concatenated fills in emit order.
func collectStream(t *testing.T, workers int, mutate func(*Options)) ([]int, []layout.Fill, *Result) {
	t.Helper()
	lay := gradientLayout()
	opts := DefaultOptions()
	opts.Workers = workers
	if mutate != nil {
		mutate(&opts)
	}
	e, err := New(lay, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ks []int
	var fills []layout.Fill
	res, err := e.RunStream(context.Background(), SinkFunc(func(k int, fs []layout.Fill) error {
		if len(fs) == 0 {
			t.Errorf("EmitWindow(%d) called with empty fills", k)
		}
		ks = append(ks, k)
		fills = append(fills, fs...)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	return ks, fills, res
}

// assertAscending checks emitted window indices are strictly increasing —
// the canonical-order contract of the Sink interface.
func assertAscending(t *testing.T, ks []int, label string) {
	t.Helper()
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Fatalf("%s: emit order not strictly ascending: k[%d]=%d after k[%d]=%d",
				label, i, ks[i], i-1, ks[i-1])
		}
	}
}

// TestRunStreamMatchesRunContext checks the streaming path emits exactly
// the barrier path's fill set, in canonical window order, for both serial
// and parallel schedules — and that the streamed sequence itself is
// schedule-invariant.
func TestRunStreamMatchesRunContext(t *testing.T) {
	barrier := runWith(t, 1, nil)

	var ref []layout.Fill
	for _, workers := range []int{1, 4} {
		ks, fills, res := collectStream(t, workers, nil)
		assertAscending(t, ks, "stream")
		checkInvariants(t, res.Health)
		if len(res.Solution.Fills) != 0 {
			t.Fatalf("workers=%d: RunStream populated Result.Solution (%d fills)", workers, len(res.Solution.Fills))
		}
		sorted := append([]layout.Fill(nil), fills...)
		sortFills(sorted)
		sameFills(t, barrier.Solution.Fills, sorted, "stream vs barrier")
		if ref == nil {
			ref = fills
			continue
		}
		sameFills(t, ref, fills, "stream workers=1 vs 4")
	}
}

// TestRunStreamFaultInjectionKeepsOrder exhausts the whole solver chain on
// a deterministic subset of windows and panics the sizing worker on
// another: degraded windows must still emit, in canonical order, and the
// streamed fill set must equal the barrier run under identical faults.
func TestRunStreamFaultInjectionKeepsOrder(t *testing.T) {
	mkInj := func() *faultinject.Injector {
		return faultinject.New(42).
			WithRate(faultinject.SiteWarmSolve, 0.5).
			WithRate(faultinject.SiteColdSolve, 1).
			WithRate(faultinject.SiteSimplexSolve, 1).
			WithRate(faultinject.SitePanic, 0.25)
	}
	barrier := runWith(t, 1, func(o *Options) { o.Inject = mkInj() })
	if barrier.Health.Degraded == 0 {
		t.Fatal("seed produced no degraded windows; pick another seed")
	}

	var ref []layout.Fill
	for _, workers := range []int{1, 4} {
		ks, fills, res := collectStream(t, workers, func(o *Options) { o.Inject = mkInj() })
		assertAscending(t, ks, "faulted stream")
		checkInvariants(t, res.Health)
		if res.Health.Degraded != barrier.Health.Degraded {
			t.Fatalf("workers=%d: degraded drifted: %s vs %s", workers, res.Health, barrier.Health)
		}
		sorted := append([]layout.Fill(nil), fills...)
		sortFills(sorted)
		sameFills(t, barrier.Solution.Fills, sorted, "faulted stream vs barrier")
		if ref == nil {
			ref = fills
			continue
		}
		sameFills(t, ref, fills, "faulted stream workers=1 vs 4")
	}
}

// TestRunStreamSinkErrorAborts checks a sink failure aborts the run and
// surfaces the sink's error.
func TestRunStreamSinkErrorAborts(t *testing.T) {
	sentinel := errors.New("sink full")
	for _, workers := range []int{1, 4} {
		e, err := New(gradientLayout(), func() Options {
			o := DefaultOptions()
			o.Workers = workers
			return o
		}())
		if err != nil {
			t.Fatal(err)
		}
		emitted := 0
		_, err = e.RunStream(context.Background(), SinkFunc(func(k int, fs []layout.Fill) error {
			if emitted++; emitted > 2 {
				return sentinel
			}
			return nil
		}))
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want sink sentinel", workers, err)
		}
	}
}

// reorderCapacity mirrors sizeAndEmit's buffer sizing: 2 per worker,
// clamped to [4, windows].
func reorderCapacity(workers, windows int) int {
	return min(max(2*workers, 4), windows)
}

// TestRunStreamPeakInFlightBounded checks the health report exposes a
// positive in-flight peak no larger than the reorder capacity, for every
// workers × shards input.
func TestRunStreamPeakInFlightBounded(t *testing.T) {
	for _, topo := range streamTopologies {
		label := fmt.Sprintf("workers=%d,shards=%d", topo.workers, topo.shards)
		t.Run(label, func(t *testing.T) {
			_, _, res := collectStream(t, topo.workers, func(o *Options) { o.Shards = topo.shards })
			peak := res.Health.PeakInFlight
			if peak < 1 {
				t.Fatalf("PeakInFlight = %d, want >= 1", peak)
			}
			if c := reorderCapacity(topo.workers, res.Windows); peak > c {
				t.Fatalf("PeakInFlight = %d exceeds reorder capacity %d", peak, c)
			}
		})
	}
}

// tiledGradientLayout repeats gradientLayout nx × ny times across the
// die: 4nx × 4ny windows.
func tiledGradientLayout(nx, ny int) *layout.Layout {
	base := gradientLayout()
	tw, th := base.Die.W(), base.Die.H()
	lay := *base
	lay.Die = geom.R(0, 0, tw*int64(nx), th*int64(ny))
	lay.Layers = make([]*layout.Layer, len(base.Layers))
	for li, bl := range base.Layers {
		l := &layout.Layer{}
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				dx, dy := tw*int64(i), th*int64(j)
				for _, r := range bl.Wires {
					l.Wires = append(l.Wires, r.Translate(dx, dy))
				}
				for _, r := range bl.FillRegions {
					l.FillRegions = append(l.FillRegions, r.Translate(dx, dy))
				}
			}
		}
		lay.Layers[li] = l
	}
	return &lay
}

// sizeRecorder is a fillMode that records which windows finished sizing.
type sizeRecorder struct {
	fillMode
	mu    sync.Mutex
	sized []bool
}

func (m *sizeRecorder) sizeWindow(ctx context.Context, k int, w *window, targets []int64, sc *sizeScratch, hc *healthCollector, start time.Time) ([]cell, bool, error) {
	cs, cacheable, err := m.fillMode.sizeWindow(ctx, k, w, targets, sc, hc, start)
	m.mu.Lock()
	m.sized[k] = true
	m.mu.Unlock()
	return cs, cacheable, err
}

// sizedAfter counts the windows with index > k that have finished sizing.
func (m *sizeRecorder) sizedAfter(k int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, done := range m.sized[k+1:] {
		if done {
			n++
		}
	}
	return n
}

// TestRunStreamSizedAheadBounded checks the memory bound of the size+emit
// stage: however many shards the grid has, windows sized ahead of the
// emission frontier are held by the reorder buffer or by a worker waiting
// to deliver, never more. A slow sink lets workers run ahead as far as
// the scheduler allows; at every emit of window k the number of windows
// past k that finished sizing must stay within capacity + workers.
func TestRunStreamSizedAheadBounded(t *testing.T) {
	for _, topo := range streamTopologies {
		label := fmt.Sprintf("workers=%d,shards=%d", topo.workers, topo.shards)
		t.Run(label, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Workers = topo.workers
			opts.Shards = topo.shards
			e, err := New(tiledGradientLayout(2, 2), opts) // 8×8 windows
			if err != nil {
				t.Fatal(err)
			}
			nw := e.g.NumWindows()
			rec := &sizeRecorder{fillMode: e.mode, sized: make([]bool, nw)}
			e.mode = rec
			bound := reorderCapacity(topo.workers, nw) + topo.workers
			peak, emits := 0, 0
			res, err := e.RunStream(context.Background(), SinkFunc(func(k int, _ []layout.Fill) error {
				emits++
				peak = max(peak, rec.sizedAfter(k))
				time.Sleep(time.Millisecond)
				return nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			if res.Health.Shards != topo.shards || emits < nw/2 {
				t.Fatalf("run did not exercise the input: shards=%d emits=%d of %d windows",
					res.Health.Shards, emits, nw)
			}
			if peak > bound {
				t.Fatalf("%d windows sized ahead of the emit frontier, want <= capacity+workers = %d", peak, bound)
			}
		})
	}
}

// TestReorderBufferReleasesInOrder drives the buffer from concurrent
// goroutines claiming ascending indices and delivering after random-ish
// (index-keyed) delays; releases must come out 0..n-1 exactly once each.
func TestReorderBufferReleasesInOrder(t *testing.T) {
	const n, capacity, workers = 64, 4, 8
	var mu sync.Mutex
	var got []int
	rb := newReorderBuffer(capacity, func(k int, fills []layout.Fill) error {
		mu.Lock()
		got = append(got, k)
		mu.Unlock()
		return nil
	})
	var next int64
	var nextMu sync.Mutex
	claim := func() int {
		nextMu.Lock()
		defer nextMu.Unlock()
		k := int(next)
		next++
		return k
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := claim()
				if k >= n {
					return
				}
				// Skew delivery so later claims often finish first.
				time.Sleep(time.Duration(k%3) * time.Millisecond)
				if err := rb.deliver(k, nil); err != nil {
					t.Errorf("deliver(%d): %v", k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("released %d windows, want %d", len(got), n)
	}
	for i, k := range got {
		if k != i {
			t.Fatalf("release %d was window %d, want %d", i, k, i)
		}
	}
	if rb.peak < 1 || rb.peak > capacity {
		t.Fatalf("peak = %d, want in [1, %d]", rb.peak, capacity)
	}
}

// TestReorderBufferBlocksUntilSpace checks deliver(k) blocks while k is a
// full capacity ahead of base, and unblocks once base catches up.
func TestReorderBufferBlocksUntilSpace(t *testing.T) {
	rb := newReorderBuffer(2, func(k int, fills []layout.Fill) error { return nil })
	blocked := make(chan error, 1)
	go func() { blocked <- rb.deliver(2, nil) }() // k=2 needs base >= 1
	select {
	case err := <-blocked:
		t.Fatalf("deliver(2) returned early (err=%v) with base=0, capacity=2", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := rb.deliver(0, nil); err != nil { // base -> 1, slot frees
		t.Fatal(err)
	}
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("deliver(2) after space freed: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("deliver(2) still blocked after base advanced")
	}
	if err := rb.deliver(1, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReorderBufferAbortWakesBlocked checks abort propagates its cause to
// goroutines blocked in deliver.
func TestReorderBufferAbortWakesBlocked(t *testing.T) {
	rb := newReorderBuffer(1, func(k int, fills []layout.Fill) error { return nil })
	sentinel := errors.New("abort cause")
	blocked := make(chan error, 1)
	go func() { blocked <- rb.deliver(1, nil) }()
	time.Sleep(10 * time.Millisecond)
	rb.abort(sentinel)
	select {
	case err := <-blocked:
		if !errors.Is(err, sentinel) {
			t.Fatalf("blocked deliver returned %v, want abort cause", err)
		}
	case <-time.After(time.Second):
		t.Fatal("abort did not wake blocked deliverer")
	}
	if err := rb.deliver(0, nil); !errors.Is(err, sentinel) {
		t.Fatalf("post-abort deliver returned %v, want abort cause", err)
	}
}

// TestReorderBufferReleaseErrorPropagates checks a release-callback error
// fails the buffer for subsequent deliveries.
func TestReorderBufferReleaseErrorPropagates(t *testing.T) {
	sentinel := errors.New("emit failed")
	rb := newReorderBuffer(4, func(k int, fills []layout.Fill) error {
		if k == 1 {
			return sentinel
		}
		return nil
	})
	if err := rb.deliver(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := rb.deliver(1, nil); !errors.Is(err, sentinel) {
		t.Fatalf("deliver(1) returned %v, want release error", err)
	}
	if err := rb.deliver(2, nil); !errors.Is(err, sentinel) {
		t.Fatalf("deliver(2) after failure returned %v, want release error", err)
	}
}
