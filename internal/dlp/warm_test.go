package dlp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomProblem builds a random feasible-or-not difference-constraint
// instance shaped like a sizing pass.
func randomProblem(rng *rand.Rand, n int) *Problem {
	p := NewProblem(n, 0)
	for i := 0; i < n; i++ {
		lo := int64(rng.Intn(50))
		p.Lo[i] = lo
		p.Hi[i] = lo + int64(rng.Intn(100))
		p.C[i] = int64(rng.Intn(41) - 20)
	}
	for k := 0; k < n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		p.AddConstraint(i, j, int64(rng.Intn(30)-15))
	}
	return p
}

// TestWarmMatchesCold solves a stream of random instances of varying
// shape through one reused WarmSolver: every answer must equal the
// one-shot solve of the same instance bit for bit (same verdict, same x),
// so nothing leaks from one solve into the next through the arena.
func TestWarmMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewWarmSolver()
	solved := 0
	for it := 0; it < 300; it++ {
		p := randomProblem(rng, 2+rng.Intn(12))
		xw, objW, errW := s.Solve(context.Background(), p)
		xc, objC, errC := p.Solve()
		if (errW == nil) != (errC == nil) {
			t.Fatalf("it %d: verdict mismatch reused=%v fresh=%v", it, errW, errC)
		}
		if errW != nil {
			if !errors.Is(errW, ErrInfeasible) {
				t.Fatalf("it %d: unexpected error %v", it, errW)
			}
			continue
		}
		solved++
		if objW != objC || !slices.Equal(xw, xc) {
			t.Fatalf("it %d: reused arena x=%v obj=%d, fresh x=%v obj=%d", it, xw, objW, xc, objC)
		}
		if err := p.Check(xw); err != nil {
			t.Fatalf("it %d: solution invalid: %v", it, err)
		}
	}
	if solved == 0 {
		t.Fatal("no feasible instances exercised")
	}
}

// TestWarmSequenceReusesState mimics the alternating-direction sizing
// loop: repeated solves of one instance with slightly perturbed costs,
// interleaved with a differently-shaped instance, must all return the
// fresh-arena answer of each instance.
func TestWarmSequenceReusesState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewWarmSolver()
	base := randomProblem(rng, 20)
	other := randomProblem(rng, 7)
	for pass := 0; pass < 10; pass++ {
		p := base
		if pass%2 == 1 {
			p = other
		}
		for i := range p.C {
			p.C[i] += int64(rng.Intn(5) - 2)
		}
		xw, objW, errW := s.Solve(context.Background(), p)
		xc, objC, errC := p.Solve()
		if (errW == nil) != (errC == nil) {
			t.Fatalf("pass %d: verdict mismatch reused=%v fresh=%v", pass, errW, errC)
		}
		if errW == nil && (objW != objC || !slices.Equal(xw, xc)) {
			t.Fatalf("pass %d: reused arena x=%v obj=%d, fresh x=%v obj=%d", pass, xw, objW, xc, objC)
		}
	}
}

// TestWarmAfterInfeasible checks the solver recovers cleanly after an
// infeasible instance (the dropCrowded retry pattern).
func TestWarmAfterInfeasible(t *testing.T) {
	s := NewWarmSolver()
	bad := NewProblem(2, 10)
	bad.AddConstraint(0, 1, 5)
	bad.AddConstraint(1, 0, 5) // x0-x1 >= 5 and x1-x0 >= 5: impossible
	if _, _, err := s.Solve(context.Background(), bad); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	good := NewProblem(2, 10)
	good.C = []int64{1, 1}
	good.AddConstraint(0, 1, 3)
	x, obj, err := s.Solve(context.Background(), good)
	if err != nil {
		t.Fatal(err)
	}
	// The canonical optimum is the componentwise-smallest one.
	if obj != 3 || x[0] != 3 || x[1] != 0 {
		t.Fatalf("bad recovery solution x=%v obj=%d, want x=[3 0] obj=3", x, obj)
	}
}

// sizingProblem builds a sizing-shaped LP: n fills along one direction,
// each with a low and a high edge variable, a minimum width between them
// and a minimum spacing to the previous fill. Costs pull the edges apart
// (area gain) like the overlay-weighted objective of Eqn. 9a.
func sizingProblem(n int) *Problem {
	p := NewProblem(2*n, 0)
	for i := 0; i < n; i++ {
		lo := int64(i * 110)
		hi := lo + 100
		p.Lo[2*i], p.Hi[2*i] = lo, hi-8
		p.Lo[2*i+1], p.Hi[2*i+1] = lo+8, hi
		p.C[2*i+1] = int64(50 + i%17)
		p.C[2*i] = -p.C[2*i+1]
		p.AddConstraint(2*i+1, 2*i, 8)
		if i > 0 {
			p.AddConstraint(2*i, 2*(i-1)+1, 10)
		}
	}
	return p
}

// TestSteadyStateSolveAllocatesNothing guards the arena: once a WarmSolver
// has solved a problem of a given size, solving it again — the phase loop
// and the canonical read-out — allocates nothing.
func TestSteadyStateSolveAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ctx := context.Background()
	p := sizingProblem(100)
	s := NewWarmSolver()
	if _, _, err := s.Solve(ctx, p); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		_, _, err = s.Solve(ctx, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("steady-state Solve allocates %.1f times per call, want 0", allocs)
	}
}

// TestProblemReset verifies Reset matches NewProblem semantics.
func TestProblemReset(t *testing.T) {
	p := NewProblem(3, 7)
	p.C[0] = 5
	p.AddConstraint(0, 1, 2)
	p.Reset(2)
	if p.N() != 2 || len(p.Cons) != 0 {
		t.Fatalf("reset left n=%d cons=%d", p.N(), len(p.Cons))
	}
	for i := 0; i < 2; i++ {
		if p.C[i] != 0 || p.Lo[i] != 0 || p.Hi[i] != 0 {
			t.Fatalf("reset left non-zero state at %d", i)
		}
	}
	// Growing beyond previous capacity must work too.
	p.Reset(64)
	if p.N() != 64 {
		t.Fatalf("reset grow failed: n=%d", p.N())
	}
}

// BenchmarkSizingSolve times the per-worker solver on sizing-shaped LPs
// re-solved with drifting costs, and reports the solver's work per solve:
// primal-dual phases and augmenting paths.
func BenchmarkSizingSolve(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{50, 200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := sizingProblem(n)
			s := NewWarmSolver()
			if _, _, err := s.Solve(ctx, p); err != nil {
				b.Fatal(err)
			}
			var phases, augments int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.C[2*(i%n)+1]++ // perturb like an overlay-cost drift
				if _, _, err := s.Solve(ctx, p); err != nil {
					b.Fatal(err)
				}
				st := s.ws.Stats()
				phases += st.Phases
				augments += st.Augments
			}
			b.ReportMetric(float64(phases)/float64(b.N), "phases/op")
			b.ReportMetric(float64(augments)/float64(b.N), "augments/op")
		})
	}
}
