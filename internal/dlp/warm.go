package dlp

import (
	"context"

	"dummyfill/internal/mcf"
)

// WarmSolver solves a sequence of difference-constraint problems through
// one reusable min-cost-flow arena: the graph, the solver workspace, the
// flow result and the solution buffer carry over from solve to solve, so
// the alternating-direction sizing loop (§3.3) performs no allocations in
// steady state. Nothing else carries over — every solve starts from its
// own instance, and the result is bit-for-bit the canonical optimum of
// that instance in isolation. The returned solution slice is reused by the
// next Solve call; callers that retain it must copy.
//
// A WarmSolver is not safe for concurrent use; give each worker its own.
type WarmSolver struct {
	g   mcf.Graph
	ws  mcf.Workspace
	res mcf.Result
	x   []int64
}

// NewWarmSolver returns a solver with an empty arena.
func NewWarmSolver() *WarmSolver { return &WarmSolver{} }

// NewWarmSSP returns a PSolver backed by a fresh WarmSolver — the factory
// used by the fill engine to give each window worker its own solver. The
// arena carries over between the windows a worker sizes; node potentials
// do not.
func NewWarmSSP() PSolver { return NewWarmSolver().Solve }

// Solve optimizes p exactly like Problem.Solve, but through the reusable
// arena, honouring cancellation mid-solve. The returned slice is valid
// until the next Solve call.
func (s *WarmSolver) Solve(ctx context.Context, p *Problem) ([]int64, int64, error) {
	if err := p.validate(); err != nil {
		return nil, 0, err
	}
	p.graph(&s.g)
	if err := s.ws.SolveSSP(ctx, &s.g, &s.res); err != nil {
		return nil, 0, dualErr(err)
	}
	n := p.N()
	if cap(s.x) < n {
		s.x = make([]int64, n)
	}
	s.x = s.x[:n]
	obj, err := p.readX(&s.ws, &s.g, &s.res, s.x)
	if err != nil {
		return nil, 0, err
	}
	return s.x, obj, nil
}
