package dlp

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// decodeProblem reads a small difference-constraint problem from fuzz
// bytes: a variable count, then cost and bound bytes per variable, then
// (i, j, b) constraint triples. Missing bytes read as zero, so every input
// decodes to some valid problem.
func decodeProblem(data []byte) *Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%8
	p := NewProblem(n, 0)
	for i := 0; i < n; i++ {
		p.C[i] = int64(next()%21 - 10)
		p.Lo[i] = int64(next()%7 - 3)
		p.Hi[i] = p.Lo[i] + int64(next()%4)
	}
	for len(data) >= 3 && len(p.Cons) < 3*n {
		i, j, b := next()%n, next()%n, int64(next()%9-4)
		if i != j {
			p.AddConstraint(i, j, b)
		}
	}
	return p
}

// optimalSet enumerates every integer assignment of a tiny problem and
// returns the optimal objective and all optimal assignments.
func optimalSet(p *Problem) (int64, [][]int64) {
	n := p.N()
	x := make([]int64, n)
	var best int64
	var opt [][]int64
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if p.Check(x) != nil {
				return
			}
			obj := p.Objective(x)
			if opt == nil || obj < best {
				best, opt = obj, nil
			}
			if obj == best {
				opt = append(opt, slices.Clone(x))
			}
			return
		}
		for v := p.Lo[i]; v <= p.Hi[i]; v++ {
			x[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return best, opt
}

// FuzzCanonicalX checks that the LP answer does not depend on the
// min-cost-flow backend: the default per-worker solver and network
// simplex return the identical canonical x (or agree the problem is
// infeasible), x passes Problem.Check, and on problems small enough to
// enumerate it is the componentwise-smallest optimum.
func FuzzCanonicalX(f *testing.F) {
	f.Add([]byte{3, 12, 3, 2, 11, 3, 3, 5, 3, 1, 0, 1, 6})
	f.Add([]byte{1, 10, 3, 0})
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 16; k++ {
		b := make([]byte, 4+rng.Intn(40))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProblem(data)
		ctx := context.Background()
		x1, obj1, err1 := NewWarmSSP()(ctx, p)
		x2, obj2, err2 := ViaNetworkSimplex(ctx, p)
		if err1 != nil || err2 != nil {
			if !errors.Is(err1, ErrInfeasible) || !errors.Is(err2, ErrInfeasible) {
				t.Fatalf("verdicts differ or not infeasibility: default %v, network simplex %v (problem %+v)", err1, err2, p)
			}
		} else {
			if obj1 != obj2 || !slices.Equal(x1, x2) {
				t.Fatalf("default x=%v obj=%d, network simplex x=%v obj=%d (problem %+v)", x1, obj1, x2, obj2, p)
			}
			if err := p.Check(x1); err != nil {
				t.Fatal(err)
			}
		}
		if p.N() > 6 {
			return
		}
		best, opt := optimalSet(p)
		if opt == nil {
			if err1 == nil {
				t.Fatalf("enumeration finds no feasible x, solver returned %v (problem %+v)", x1, p)
			}
			return
		}
		if err1 != nil {
			t.Fatalf("solver says %v, enumeration found optimum %d (problem %+v)", err1, best, p)
		}
		if obj1 != best {
			t.Fatalf("objective %d (x=%v), enumeration optimum %d (problem %+v)", obj1, x1, best, p)
		}
		for _, y := range opt {
			for i := range y {
				if x1[i] > y[i] {
					t.Fatalf("x=%v is not componentwise below optimum %v (problem %+v)", x1, y, p)
				}
			}
		}
	})
}
