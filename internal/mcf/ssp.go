package mcf

import (
	"context"
	"math"
)

// SolveSSP solves the min-cost flow problem with the primal-dual
// successive-shortest-path method of Workspace.SolveSSP on a fresh
// workspace: SPFA initializes the node potentials (so negative arc costs
// need no pre-transformation), negative residual cycles are cancelled (or
// reported as ErrUnbounded when uncapacitated), and each phase runs one
// multi-source Dijkstra over reduced costs followed by a blocking flow
// over the zero-reduced-cost arcs.
//
// Callers solving many instances should hold a Workspace and call its
// SolveSSP directly: the arena carries over, making the steady-state solve
// allocation-free.
func (g *Graph) SolveSSP() (*Result, error) {
	var ws Workspace
	out := &Result{}
	if err := ws.SolveSSP(context.Background(), g, out); err != nil {
		return nil, err
	}
	return out, nil
}

// cancelNegativeCycles repeatedly finds a negative-cost cycle in the
// residual graph via Bellman-Ford with parent tracking and saturates it.
// Cycles whose bottleneck is effectively infinite indicate an unbounded
// objective. Shared by the cycle-canceling solver.
func cancelNegativeCycles(n int, first, next, head []int, cost, res []int64) error {
	dist := make([]int64, n)
	parentArc := make([]int, n)
	for {
		for i := range dist {
			dist[i] = 0 // virtual source to all nodes at cost 0
			parentArc[i] = -1
		}
		cycleNode := -1
		for iter := 0; iter < n; iter++ {
			changed := false
			for u := 0; u < n; u++ {
				du := dist[u]
				for e := first[u]; e != -1; e = next[e] {
					if res[e] <= 0 {
						continue
					}
					v := head[e]
					if nd := du + cost[e]; nd < dist[v] {
						dist[v] = nd
						parentArc[v] = e
						changed = true
						if iter == n-1 {
							cycleNode = v
						}
					}
				}
			}
			if !changed {
				return nil // no negative cycle
			}
		}
		if cycleNode == -1 {
			return nil
		}
		// Walk parents n times to land inside the cycle, then extract it.
		v := cycleNode
		for i := 0; i < n; i++ {
			v = head[parentArc[v]^1]
		}
		var cyc []int
		start := v
		for {
			e := parentArc[v]
			cyc = append(cyc, e)
			v = head[e^1]
			if v == start {
				break
			}
		}
		var bottleneck int64 = math.MaxInt64
		for _, e := range cyc {
			if res[e] < bottleneck {
				bottleneck = res[e]
			}
		}
		if bottleneck >= InfCap/2 {
			return ErrUnbounded
		}
		for _, e := range cyc {
			res[e] -= bottleneck
			res[e^1] += bottleneck
		}
	}
}

// residualPotentials runs Bellman-Ford from a virtual source connected to
// all nodes by zero-cost arcs over residual arcs (res > 0) and returns
// -dist as potentials. Shared by the cycle-canceling solver.
func residualPotentials(n int, first, next, head []int, cost, res []int64) ([]int64, error) {
	dist := make([]int64, n)
	// Virtual source: dist starts at 0 for all nodes.
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			du := dist[u]
			for e := first[u]; e != -1; e = next[e] {
				if res[e] <= 0 {
					continue
				}
				v := head[e]
				if nd := du + cost[e]; nd < dist[v] {
					dist[v] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if iter == n-1 && changed {
			return nil, ErrUnbounded
		}
	}
	pot := make([]int64, n)
	for i := range pot {
		pot[i] = -dist[i]
	}
	return pot, nil
}
