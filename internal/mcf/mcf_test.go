package mcf

import (
	"errors"
	"math/rand"
	"testing"
)

// solvers under test.
var solvers = []struct {
	name  string
	solve func(*Graph) (*Result, error)
}{
	{"SSP", (*Graph).SolveSSP},
	{"NetworkSimplex", (*Graph).SolveNetworkSimplex},
}

func TestTrivialTwoNode(t *testing.T) {
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			g := NewGraph(2)
			g.SetSupply(0, 5)
			g.SetSupply(1, -5)
			g.AddArc(0, 1, 10, 3)
			res, err := s.solve(g)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != 15 {
				t.Fatalf("cost = %d, want 15", res.Cost)
			}
			if _, err := g.Validate(res); err != nil {
				t.Fatal(err)
			}
			if err := g.VerifyOptimal(res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestChoosesCheaperPath(t *testing.T) {
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			g := NewGraph(4)
			g.SetSupply(0, 10)
			g.SetSupply(3, -10)
			g.AddArc(0, 1, 10, 1)
			g.AddArc(1, 3, 10, 1) // cheap path cost 2
			g.AddArc(0, 2, 10, 5)
			g.AddArc(2, 3, 10, 5) // expensive path cost 10
			res, err := s.solve(g)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != 20 {
				t.Fatalf("cost = %d, want 20", res.Cost)
			}
			if res.Flow[0] != 10 || res.Flow[2] != 0 {
				t.Fatalf("flow not on cheap path: %v", res.Flow)
			}
		})
	}
}

func TestCapacitySplitsFlow(t *testing.T) {
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			g := NewGraph(4)
			g.SetSupply(0, 10)
			g.SetSupply(3, -10)
			g.AddArc(0, 1, 4, 1)
			g.AddArc(1, 3, 4, 1)
			g.AddArc(0, 2, 10, 5)
			g.AddArc(2, 3, 10, 5)
			res, err := s.solve(g)
			if err != nil {
				t.Fatal(err)
			}
			// 4 units at cost 2, 6 units at cost 10.
			if res.Cost != 4*2+6*10 {
				t.Fatalf("cost = %d, want 68", res.Cost)
			}
			if _, err := g.Validate(res); err != nil {
				t.Fatal(err)
			}
			if err := g.VerifyOptimal(res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestNegativeCostArc(t *testing.T) {
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			g := NewGraph(3)
			g.SetSupply(0, 1)
			g.SetSupply(2, -1)
			g.AddArc(0, 1, 5, -4)
			g.AddArc(1, 2, 5, 1)
			g.AddArc(0, 2, 5, 0)
			res, err := s.solve(g)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != -3 {
				t.Fatalf("cost = %d, want -3", res.Cost)
			}
			if err := g.VerifyOptimal(res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestInfeasibleSupplies(t *testing.T) {
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			g := NewGraph(3)
			g.SetSupply(0, 5)
			g.SetSupply(2, -5)
			g.AddArc(0, 1, 10, 1) // no arc into node 2
			_, err := s.solve(g)
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("err = %v, want ErrInfeasible", err)
			}
		})
	}
}

func TestUnbalancedSupplies(t *testing.T) {
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			g := NewGraph(2)
			g.SetSupply(0, 5)
			g.SetSupply(1, -3)
			g.AddArc(0, 1, 10, 1)
			_, err := s.solve(g)
			if !errors.Is(err, ErrUnbalanced) {
				t.Fatalf("err = %v, want ErrUnbalanced", err)
			}
		})
	}
}

func TestNegativeCycleUnbounded(t *testing.T) {
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			g := NewGraph(3)
			g.SetSupply(0, 1)
			g.SetSupply(2, -1)
			g.AddArc(0, 2, InfCap, 0)
			g.AddArc(0, 1, InfCap, -5)
			g.AddArc(1, 0, InfCap, -5) // negative 2-cycle, infinite capacity
			_, err := s.solve(g)
			if !errors.Is(err, ErrUnbounded) {
				t.Fatalf("err = %v, want ErrUnbounded", err)
			}
		})
	}
}

func TestZeroSupplyWithNegativeArcs(t *testing.T) {
	// Even with all supplies zero, negative arcs with capacity should be
	// saturated by an optimal circulation... our solvers treat the zero
	// flow as optimal only if no negative residual cycle exists. A single
	// negative arc (no cycle) admits no circulation, so zero flow is
	// optimal with cost 0.
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			g := NewGraph(2)
			g.AddArc(0, 1, 10, -7)
			res, err := s.solve(g)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != 0 {
				t.Fatalf("cost = %d, want 0", res.Cost)
			}
		})
	}
}

func TestPaperFig6Graph(t *testing.T) {
	// The min-cost-flow instance of Fig. 6(a): nodes y0..y4 with supplies
	// (-10, 1, 2, 3, 4); bound arcs between y0 and each variable with
	// costs 0 (lower bound 0) and 10 (upper bound 10); constraint arcs
	// y2->y1 cost -5 and y3->y4 cost -6. The solution graph in Fig. 6(b)
	// has potentials y = (-8, -3, -8, -8, -2), i.e. x = y_i - y_0 =
	// (5, 0, 0, 6).
	for _, s := range solvers {
		t.Run(s.name, func(t *testing.T) {
			g := NewGraph(5) // 0 = reference, 1..4 = variables
			// Supplies: -c_i for variables, +Σc for reference.
			g.SetSupply(0, 10)
			g.SetSupply(1, -1)
			g.SetSupply(2, -2)
			g.SetSupply(3, -3)
			g.SetSupply(4, -4)
			for i := 1; i <= 4; i++ {
				g.AddArc(0, i, InfCap, 0)  // x_i >= 0
				g.AddArc(i, 0, InfCap, 10) // x_i <= 10
			}
			g.AddArc(2, 1, InfCap, -5) // x1 - x2 >= 5
			g.AddArc(3, 4, InfCap, -6) // x4 - x3 >= 6
			res, err := s.solve(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.VerifyOptimal(res); err != nil {
				t.Fatal(err)
			}
			y0 := res.Potential[0]
			want := []int64{5, 0, 0, 6}
			for i, w := range want {
				if got := res.Potential[i+1] - y0; got != w {
					t.Fatalf("x[%d] = %d, want %d (potentials %v)", i+1, got, w, res.Potential)
				}
			}
		})
	}
}

// randomInstance builds a random feasible balanced instance.
func randomInstance(rng *rand.Rand, n, m int) *Graph {
	g := NewGraph(n)
	// Random spanning path with large capacity guarantees feasibility.
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		g.AddArc(perm[i], perm[i+1], 1000, int64(rng.Intn(21)-10))
		g.AddArc(perm[i+1], perm[i], 1000, int64(rng.Intn(21))) // avoid free negative 2-cycles
	}
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			continue
		}
		g.AddArc(u, v, int64(rng.Intn(50)), int64(rng.Intn(41)-10))
	}
	// Balanced random supplies.
	var tot int64
	for i := 0; i < n-1; i++ {
		s := int64(rng.Intn(21) - 10)
		g.SetSupply(i, s)
		tot += s
	}
	g.SetSupply(n-1, -tot)
	return g
}

func TestCrossValidateSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for it := 0; it < 200; it++ {
		n := 2 + rng.Intn(8)
		g := randomInstance(rng, n, rng.Intn(12))
		r1, err1 := g.SolveSSP()
		r2, err2 := g.SolveNetworkSimplex()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("it %d: solver disagreement: ssp=%v ns=%v", it, err1, err2)
		}
		if err1 != nil {
			if !errors.Is(err1, ErrUnbounded) && !errors.Is(err1, ErrInfeasible) {
				t.Fatalf("it %d: unexpected error %v", it, err1)
			}
			continue
		}
		if r1.Cost != r2.Cost {
			t.Fatalf("it %d: cost mismatch ssp=%d ns=%d", it, r1.Cost, r2.Cost)
		}
		for name, r := range map[string]*Result{"ssp": r1, "ns": r2} {
			if c, err := g.Validate(r); err != nil || c != r.Cost {
				t.Fatalf("it %d %s: validate: %v (cost %d vs %d)", it, name, err, c, r.Cost)
			}
			if err := g.VerifyOptimal(r); err != nil {
				t.Fatalf("it %d %s: optimality: %v", it, name, err)
			}
		}
	}
}

// TestCanonicalizeAgreesAcrossSolvers: the two solvers may return
// different optimal flows and potentials, but canonicalized potentials
// are unique, remain optimal, and pin the reference node at zero.
func TestCanonicalizeAgreesAcrossSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ws Workspace
	solved := 0
	for it := 0; it < 300; it++ {
		n := 2 + rng.Intn(10)
		g := randomInstance(rng, n, rng.Intn(20))
		r1, err1 := g.SolveSSP()
		r2, err2 := g.SolveNetworkSimplex()
		if err1 != nil || err2 != nil {
			continue
		}
		solved++
		ref := rng.Intn(n)
		if err := ws.Canonicalize(g, r1, ref); err != nil {
			t.Fatalf("it %d ssp: %v", it, err)
		}
		if err := ws.Canonicalize(g, r2, ref); err != nil {
			t.Fatalf("it %d ns: %v", it, err)
		}
		for v := range r1.Potential {
			if r1.Potential[v] != r2.Potential[v] {
				t.Fatalf("it %d: canonical potentials differ: ssp %v, ns %v", it, r1.Potential, r2.Potential)
			}
		}
		if r1.Potential[ref] != 0 {
			t.Fatalf("it %d: reference potential %d, want 0", it, r1.Potential[ref])
		}
		if err := g.VerifyOptimal(r1); err != nil {
			t.Fatalf("it %d: canonical potentials not optimal: %v", it, err)
		}
	}
	if solved == 0 {
		t.Fatal("no feasible instances exercised")
	}
}

// TestCanonicalizeRejectsNonOptimal: potentials that leave a residual arc
// with negative reduced cost are reported, not silently canonicalized.
func TestCanonicalizeRejectsNonOptimal(t *testing.T) {
	g := NewGraph(3)
	g.SetSupply(0, 4)
	g.SetSupply(2, -4)
	g.AddArc(0, 1, InfCap, 1)
	g.AddArc(1, 2, InfCap, 1)
	g.AddArc(0, 2, InfCap, 5)
	// Flow on the expensive direct arc is feasible but not optimal.
	res := &Result{Flow: []int64{0, 0, 4}, Potential: []int64{0, -1, -5}, Cost: 20}
	var ws Workspace
	if err := ws.Canonicalize(g, res, 0); err == nil {
		t.Fatal("non-optimal result canonicalized without error")
	}
}

func TestLargerCrossValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 20; it++ {
		g := randomInstance(rng, 40, 120)
		r1, err1 := g.SolveSSP()
		r2, err2 := g.SolveNetworkSimplex()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("it %d: disagreement: %v vs %v", it, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if r1.Cost != r2.Cost {
			t.Fatalf("it %d: cost mismatch %d vs %d", it, r1.Cost, r2.Cost)
		}
	}
}

func TestValidateRejectsBadFlows(t *testing.T) {
	g := NewGraph(2)
	g.SetSupply(0, 1)
	g.SetSupply(1, -1)
	g.AddArc(0, 1, 5, 1)
	if _, err := g.Validate(&Result{Flow: []int64{9}}); err == nil {
		t.Fatal("over-capacity flow must fail validation")
	}
	if _, err := g.Validate(&Result{Flow: []int64{0}}); err == nil {
		t.Fatal("non-conserving flow must fail validation")
	}
	if _, err := g.Validate(&Result{Flow: []int64{}}); err == nil {
		t.Fatal("wrong-length flow must fail validation")
	}
}

func BenchmarkSSPMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomInstance(rng, 200, 800)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.SolveSSP(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetworkSimplexMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomInstance(rng, 200, 800)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.SolveNetworkSimplex(); err != nil {
			b.Fatal(err)
		}
	}
}
