package fill

import (
	"fmt"
	"strings"
	"testing"

	"dummyfill/internal/faultinject"
)

// TestShardsResolution checks the Options.Shards → band decomposition:
// shards cover the full canonical window range contiguously, the count is
// capped by the grid's rows, and the split depends only on the option.
func TestShardsResolution(t *testing.T) {
	e, err := New(gradientLayout(), DefaultOptions()) // 4x4 windows
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ opt, want int }{
		{1, 1}, {2, 2}, {3, 3}, {4, 4},
		{100, 4}, // capped at NY rows
	} {
		e.opts.Shards = tc.opt
		sh := e.shards()
		if len(sh) != tc.want {
			t.Fatalf("Shards=%d: got %d shards, want %d", tc.opt, len(sh), tc.want)
		}
		next := 0
		for i, s := range sh {
			if s.k0 != next || s.k1 <= s.k0 {
				t.Fatalf("Shards=%d: shard %d range [%d,%d), want start %d",
					tc.opt, i, s.k0, s.k1, next)
			}
			next = s.k1
		}
		if next != e.g.NumWindows() {
			t.Fatalf("Shards=%d: shards cover %d windows, grid has %d",
				tc.opt, next, e.g.NumWindows())
		}
	}
	// Default (0) resolves to at least one shard.
	e.opts.Shards = 0
	if sh := e.shards(); len(sh) < 1 {
		t.Fatalf("default shards: got %d", len(sh))
	}
}

// TestShardedRunsByteIdentical runs the engine across the shards ×
// workers matrix (fewer, as many and more workers than shards) and
// requires geometrically identical solutions plus correctly reported
// shard health everywhere.
func TestShardedRunsByteIdentical(t *testing.T) {
	ref := runWith(t, 1, func(o *Options) { o.Shards = 1 })
	if ref.Health.Shards != 1 || ref.Health.PlanDivergence != 0 {
		t.Fatalf("unsharded health: %+v", ref.Health)
	}
	var divAt2 []float64
	for _, shards := range []int{1, 2, 3, 4} {
		for _, workers := range []int{1, 2, 3, 8} {
			label := fmt.Sprintf("shards=%d workers=%d", shards, workers)
			res := runWith(t, workers, func(o *Options) { o.Shards = shards })
			sameFills(t, ref.Solution.Fills, res.Solution.Fills, label)
			checkInvariants(t, res.Health)
			if res.Health.Shards != shards {
				t.Fatalf("%s: Health.Shards = %d", label, res.Health.Shards)
			}
			if shards == 1 && res.Health.PlanDivergence != 0 {
				t.Fatalf("%s: single shard diverged: %v", label, res.Health.PlanDivergence)
			}
			if shards == 2 {
				divAt2 = append(divAt2, res.Health.PlanDivergence)
			}
		}
	}
	// PlanDivergence is a pure function of layout and options — identical
	// across worker counts for a fixed shard count.
	for _, d := range divAt2 {
		if d != divAt2[0] {
			t.Fatalf("PlanDivergence varies across workers at shards=2: %v", divAt2)
		}
	}
}

// TestShardedHealthString checks the shard fields render in the one-line
// health report.
func TestShardedHealthString(t *testing.T) {
	h := Health{Windows: 4, Sized: 4, Shards: 3, PlanDivergence: 0.125}
	if s := h.String(); !strings.Contains(s, "shards=3") || !strings.Contains(s, "plan-div=0.1250") {
		t.Fatalf("shard fields missing from %q", s)
	}
	if s := (Health{Windows: 4, Sized: 4, Shards: 1}).String(); strings.Contains(s, "shards=") {
		t.Fatalf("unsharded report mentions shards: %q", s)
	}
}

// TestShardedResilience checks fault degradation under sharding: injected
// solver faults are window-keyed, so the degraded fill set and health
// counters must match the unsharded run exactly for every shard count.
func TestShardedResilience(t *testing.T) {
	mk := func(workers, shards int) *Result {
		return runWith(t, workers, func(o *Options) {
			o.Shards = shards
			o.Inject = faultinject.New(42).
				WithRate(faultinject.SiteWarmSolve, 0.5).
				WithRate(faultinject.SiteColdSolve, 0.5)
		})
	}
	ref := mk(1, 1)
	checkInvariants(t, ref.Health)
	if ref.Health.Healthy() {
		t.Fatal("faults injected but run reports healthy")
	}
	for _, tc := range []struct{ workers, shards int }{
		{2, 4}, {4, 2}, {8, 3},
	} {
		res := mk(tc.workers, tc.shards)
		label := fmt.Sprintf("shards=%d workers=%d", tc.shards, tc.workers)
		sameFills(t, ref.Solution.Fills, res.Solution.Fills, label)
		checkInvariants(t, res.Health)
		if res.Health.FallbackCold != ref.Health.FallbackCold ||
			res.Health.FallbackSimplex != ref.Health.FallbackSimplex ||
			res.Health.Degraded != ref.Health.Degraded {
			t.Fatalf("%s: health %s differs from unsharded %s", label, res.Health, ref.Health)
		}
	}
}
