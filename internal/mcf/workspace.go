package mcf

import (
	"context"
	"fmt"
	"math"
)

// Workspace is a reusable min-cost-flow solver state: the residual-graph
// arena plus the shortest-path, level-graph and DFS buffers. Reusing one
// Workspace across many solves of similarly-sized problems keeps the hot
// path allocation-free. No solution state carries from one solve to the
// next: every solve rebuilds the residual graph from its input.
//
// A Workspace is not safe for concurrent use; give each goroutine its own.
// The zero value is ready to use.
type Workspace struct {
	// Residual representation: arc i of the input graph becomes forward
	// residual res[2i] and backward residual res[2i+1]; costs negate on the
	// backward side, head[e] is the target node and e^1 the reverse arc.
	res, cost  []int64
	head, next []int
	first      []int

	excess  []int64
	dist    []int64
	pot     []int64
	prevArc []int

	// SPFA state; queue doubles as the level-graph BFS queue.
	inQueue  []bool
	relaxCnt []int32
	queue    []int

	// Dijkstra state.
	heap    []heapEntry
	visited []bool

	// Blocking-flow state: BFS level per node (-1 = unreached or dead
	// end), current arc per node, and the arc stack of the DFS path.
	level []int32
	cur   []int
	path  []int

	stats Stats
}

// Stats counts the work of the last SolveSSP call on a Workspace. The
// counts are deterministic functions of the input graph.
type Stats struct {
	Phases   int // Dijkstra potential updates
	Augments int // augmenting paths
}

// Stats returns the work counters of the last SolveSSP call.
func (ws *Workspace) Stats() Stats { return ws.stats }

type heapEntry struct {
	dist int64
	node int
}

// grow (re)sizes the workspace buffers for n nodes and m arcs without
// shrinking capacity.
func (ws *Workspace) grow(n, m int) {
	ws.res = growI64(ws.res, 2*m)
	ws.cost = growI64(ws.cost, 2*m)
	ws.head = growInt(ws.head, 2*m)
	ws.next = growInt(ws.next, 2*m)
	ws.first = growInt(ws.first, n)
	ws.excess = growI64(ws.excess, n)
	ws.dist = growI64(ws.dist, n)
	ws.pot = growI64(ws.pot, n)
	ws.prevArc = growInt(ws.prevArc, n)
	ws.cur = growInt(ws.cur, n)
	if cap(ws.inQueue) < n {
		ws.inQueue = make([]bool, n)
	}
	ws.inQueue = ws.inQueue[:n]
	if cap(ws.relaxCnt) < n {
		ws.relaxCnt = make([]int32, n)
	}
	ws.relaxCnt = ws.relaxCnt[:n]
	if cap(ws.visited) < n {
		ws.visited = make([]bool, n)
	}
	ws.visited = ws.visited[:n]
	if cap(ws.level) < n {
		ws.level = make([]int32, n)
	}
	ws.level = ws.level[:n]
	ws.queue = ws.queue[:0]
	ws.heap = ws.heap[:0]
	ws.path = ws.path[:0]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// load builds the residual graph of g carrying flow (nil = zero flow)
// into the arena and sets every node's excess to its supply.
func (ws *Workspace) load(g *Graph, flow []int64) {
	n, m := len(g.supply), len(g.arcs)
	ws.grow(n, m)
	for i := 0; i < n; i++ {
		ws.first[i] = -1
	}
	for i, a := range g.arcs {
		var f int64
		if flow != nil {
			f = flow[i]
		}
		fw, bw := 2*i, 2*i+1
		ws.res[fw], ws.res[bw] = a.Cap-f, f
		ws.head[fw], ws.head[bw] = a.To, a.From
		ws.cost[fw], ws.cost[bw] = a.Cost, -a.Cost
		ws.next[fw] = ws.first[a.From]
		ws.first[a.From] = fw
		ws.next[bw] = ws.first[a.To]
		ws.first[a.To] = bw
	}
	copy(ws.excess, g.supply)
}

// SolveSSP solves g into out with a primal-dual successive-shortest-path
// method, reusing the workspace buffers. Potentials are initialized once
// with SPFA (queue-based Bellman-Ford, so negative arc costs need no
// pre-transformation); negative residual cycles are cancelled, or reported
// as ErrUnbounded when uncapacitated. Each phase then runs one
// multi-source Dijkstra from every excess node over reduced costs, shifts
// the potentials by the distances so every shortest path has zero reduced
// cost, and saturates the zero-reduced-cost (admissible) subgraph with a
// Dinic-style blocking flow from the excess nodes to the deficit nodes.
// Sizing LPs finish in about one phase.
//
// The context is honoured mid-solve: cancellation is checked once per
// phase and once per blocking-flow round, so a runaway instance can be
// abandoned promptly. A cancelled solve returns a SolverError unwrapping
// to ctx.Err().
//
// out's slices are resized in place, so a caller that reuses one Result
// across solves performs no allocations in steady state.
func (ws *Workspace) SolveSSP(ctx context.Context, g *Graph, out *Result) error {
	if err := g.checkSolvable(); err != nil {
		return err
	}
	n := len(g.supply)
	m := len(g.arcs)
	ws.load(g, nil)
	ws.stats = Stats{}
	if err := ws.initPotentials(ctx, n); err != nil {
		return err
	}

	for ws.hasExcess(n) {
		if err := ctx.Err(); err != nil {
			return &SolverError{Op: "ssp", Err: err}
		}
		if err := ws.reprice(n); err != nil {
			return err
		}
		ws.stats.Phases++
		for {
			if err := ctx.Err(); err != nil {
				return &SolverError{Op: "ssp", Err: err}
			}
			if !ws.levels(n) {
				break
			}
			for s := 0; s < n; s++ {
				if ws.excess[s] > 0 {
					ws.blockingFrom(s)
				}
			}
		}
	}

	// Extract flows and potentials into out, reusing its slices.
	out.Flow = growI64(out.Flow, m)
	out.Potential = growI64(out.Potential, n)
	out.Cost = 0
	for i, a := range g.arcs {
		f := a.Cap - ws.res[2*i]
		out.Flow[i] = f
		out.Cost += f * a.Cost
	}
	copy(out.Potential, ws.pot)
	return nil
}

func (ws *Workspace) hasExcess(n int) bool {
	for v := 0; v < n; v++ {
		if ws.excess[v] > 0 {
			return true
		}
	}
	return false
}

// reprice runs Dijkstra over reduced costs from every excess node at once,
// without early exit, and lowers each potential by its distance (capped at
// the largest finite one for unreached nodes). Residual reduced costs stay
// non-negative and every shortest path becomes admissible. It returns
// ErrInfeasible when no deficit node is reachable.
func (ws *Workspace) reprice(n int) error {
	const inf = math.MaxInt64
	ws.heap = ws.heap[:0]
	for v := 0; v < n; v++ {
		ws.visited[v] = false
		ws.dist[v] = inf
		if ws.excess[v] > 0 {
			ws.dist[v] = 0
			ws.heapPush(heapEntry{0, v})
		}
	}
	maxDist, err := ws.dijkstra(ws.pot)
	if err != nil {
		return err
	}
	reached := false
	for v := 0; v < n; v++ {
		reached = reached || (ws.visited[v] && ws.excess[v] < 0)
		ws.pot[v] -= min(ws.dist[v], maxDist)
	}
	if !reached {
		return ErrInfeasible
	}
	return nil
}

// dijkstra drains the heap seeded by the caller, relaxing residual arcs by
// their reduced cost under pot and marking finalized nodes visited. It
// returns the largest finalized distance, or an error if some residual
// arc out of a finalized node has a negative reduced cost (pot is not
// dual-feasible).
func (ws *Workspace) dijkstra(pot []int64) (int64, error) {
	var maxDist int64
	for len(ws.heap) > 0 {
		it := ws.heapPop()
		u := it.node
		if ws.visited[u] || it.dist > ws.dist[u] {
			continue
		}
		ws.visited[u] = true
		du := ws.dist[u]
		maxDist = du
		pu := pot[u]
		for e := ws.first[u]; e != -1; e = ws.next[e] {
			if ws.res[e] <= 0 {
				continue
			}
			v := ws.head[e]
			rc := ws.cost[e] - pu + pot[v]
			if rc < 0 {
				return 0, fmt.Errorf("mcf: residual arc %d->%d has reduced cost %d < 0", u, v, rc)
			}
			if ws.visited[v] {
				continue
			}
			if nd := du + rc; nd < ws.dist[v] {
				ws.dist[v] = nd
				ws.heapPush(heapEntry{nd, v})
			}
		}
	}
	return maxDist, nil
}

// admissible reports whether residual arc e out of u has spare capacity
// and zero reduced cost.
func (ws *Workspace) admissible(u, e int) bool {
	return ws.res[e] > 0 && ws.cost[e]-ws.pot[u]+ws.pot[ws.head[e]] == 0
}

// levels labels every node with its BFS depth from the excess nodes over
// admissible arcs, resets the current-arc pointers, and reports whether a
// deficit node was reached.
func (ws *Workspace) levels(n int) bool {
	q := ws.queue[:0]
	for v := 0; v < n; v++ {
		ws.cur[v] = ws.first[v]
		ws.level[v] = -1
		if ws.excess[v] > 0 {
			ws.level[v] = 0
			q = append(q, v)
		}
	}
	found := false
	for qi := 0; qi < len(q); qi++ {
		u := q[qi]
		if ws.excess[u] < 0 {
			found = true
		}
		for e := ws.first[u]; e != -1; e = ws.next[e] {
			if v := ws.head[e]; ws.level[v] < 0 && ws.admissible(u, e) {
				ws.level[v] = ws.level[u] + 1
				q = append(q, v)
			}
		}
	}
	ws.queue = q
	return found
}

// blockingFrom pushes s's excess down the level graph to deficit nodes
// with current-arc DFS, one augmenting path at a time, until s is drained
// or no level path from it remains. Dead ends leave the level graph.
func (ws *Workspace) blockingFrom(s int) {
	for ws.excess[s] > 0 {
		ws.path = ws.path[:0]
		u := s
		for ws.excess[u] >= 0 { // until u is a deficit node
			e := ws.cur[u]
			for ; e != -1; e = ws.next[e] {
				if v := ws.head[e]; ws.level[v] == ws.level[u]+1 && ws.admissible(u, e) {
					break
				}
			}
			ws.cur[u] = e
			if e != -1 {
				ws.path = append(ws.path, e)
				u = ws.head[e]
				continue
			}
			ws.level[u] = -1
			if u == s {
				return
			}
			last := ws.path[len(ws.path)-1]
			ws.path = ws.path[:len(ws.path)-1]
			u = ws.head[last^1]
			ws.cur[u] = ws.next[ws.cur[u]]
		}
		amt := min(ws.excess[s], -ws.excess[u])
		for _, e := range ws.path {
			amt = min(amt, ws.res[e])
		}
		for _, e := range ws.path {
			ws.res[e] -= amt
			ws.res[e^1] += amt
		}
		ws.excess[s] -= amt
		ws.excess[u] += amt
		ws.stats.Augments++
	}
}

// Canonicalize rewrites res.Potential into the canonical optimal
// potentials of g relative to node ref: pot[v] = −dist(ref→v) in the
// residual graph of res.Flow. These are the componentwise-smallest optimal
// potentials with pot[ref] = 0, the same for every optimal flow and every
// optimal dual a solver may return, so reading an answer off them does not
// depend on the solver or its tie-breaking. Nodes unreachable from ref are
// shifted like reprice's unreached nodes.
//
// res must be optimal for g: its potentials must give every residual arc a
// non-negative reduced cost. The distances are computed with one Dijkstra
// over those reduced costs; a violation is reported as an error. The
// workspace arena is reused, so the call is allocation-free in steady
// state.
func (ws *Workspace) Canonicalize(g *Graph, res *Result, ref int) error {
	n := len(g.supply)
	if len(res.Flow) != len(g.arcs) || len(res.Potential) != n || ref < 0 || ref >= n {
		return fmt.Errorf("mcf: canonicalize: result shape (%d flows, %d potentials, ref %d) does not match graph (%d arcs, %d nodes)",
			len(res.Flow), len(res.Potential), ref, len(g.arcs), n)
	}
	ws.load(g, res.Flow)
	pot := res.Potential
	for v := 0; v < n; v++ {
		ws.visited[v] = false
		ws.dist[v] = math.MaxInt64
	}
	ws.dist[ref] = 0
	ws.heapPush(heapEntry{0, ref})
	maxDist, err := ws.dijkstra(pot)
	if err != nil {
		return &SolverError{Op: "canonicalize", Err: err}
	}
	p0 := pot[ref]
	for v := 0; v < n; v++ {
		pot[v] -= p0 + min(ws.dist[v], maxDist)
	}
	return nil
}

// initPotentials runs SPFA from a virtual source reaching every node at
// distance zero over the (all-forward) residual graph and sets pot = -dist.
// Negative cycles are detected via relaxation counting; finite-capacity
// cycles are cancelled and the search restarts, infinite ones are reported
// as ErrUnbounded.
func (ws *Workspace) initPotentials(ctx context.Context, n int) error {
restart:
	for i := 0; i < n; i++ {
		ws.dist[i] = 0
		ws.inQueue[i] = true
		ws.relaxCnt[i] = 0
		ws.prevArc[i] = -1
	}
	ws.queue = ws.queue[:0]
	for i := 0; i < n; i++ {
		ws.queue = append(ws.queue, i)
	}
	for qi := 0; qi < len(ws.queue); qi++ {
		if qi%spfaCtxStride == 0 && qi > 0 {
			if err := ctx.Err(); err != nil {
				return &SolverError{Op: "ssp", Err: err}
			}
		}
		u := ws.queue[qi]
		ws.inQueue[u] = false
		du := ws.dist[u]
		for e := ws.first[u]; e != -1; e = ws.next[e] {
			if ws.res[e] <= 0 {
				continue
			}
			v := ws.head[e]
			if nd := du + ws.cost[e]; nd < ws.dist[v] {
				ws.dist[v] = nd
				ws.prevArc[v] = e
				if !ws.inQueue[v] {
					ws.relaxCnt[v]++
					if int(ws.relaxCnt[v]) > n+1 {
						// Negative cycle somewhere: cancel all of them (or
						// report unbounded), then redo the search.
						if err := ws.cancelNegativeCycles(ctx, n); err != nil {
							return err
						}
						goto restart
					}
					ws.queue = append(ws.queue, v)
					ws.inQueue[v] = true
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		ws.pot[i] = -ws.dist[i]
	}
	return nil
}

// spfaCtxStride is how many SPFA queue pops pass between cancellation
// checks — frequent enough that a cancelled solve returns within
// microseconds, rare enough to stay off the profile.
const spfaCtxStride = 4096

// cancelNegativeCycles repeatedly finds a negative-cost cycle in the
// residual graph via Bellman-Ford with parent tracking and saturates it.
// A node still relaxed in the n-th iteration has a parent chain of length
// >= n, which with n nodes must contain a cycle, so the n-step parent walk
// below always lands inside one. Cycles whose bottleneck is effectively
// infinite indicate an unbounded objective. This is the rare path: it runs
// only when the SPFA initialization detects a cycle (infeasible or
// adversarial instances), never on well-formed sizing LPs.
func (ws *Workspace) cancelNegativeCycles(ctx context.Context, n int) error {
	for {
		if err := ctx.Err(); err != nil {
			return &SolverError{Op: "ssp", Err: err}
		}
		for i := 0; i < n; i++ {
			ws.dist[i] = 0 // virtual source to all nodes at cost 0
			ws.prevArc[i] = -1
		}
		cycleNode := -1
		for iter := 0; iter < n; iter++ {
			changed := false
			for u := 0; u < n; u++ {
				du := ws.dist[u]
				for e := ws.first[u]; e != -1; e = ws.next[e] {
					if ws.res[e] <= 0 {
						continue
					}
					v := ws.head[e]
					if nd := du + ws.cost[e]; nd < ws.dist[v] {
						ws.dist[v] = nd
						ws.prevArc[v] = e
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
			v = ws.head[ws.prevArc[v]^1]
		}
		start := v
		var bottleneck int64 = math.MaxInt64
		for {
			e := ws.prevArc[v]
			if ws.res[e] < bottleneck {
				bottleneck = ws.res[e]
			}
			v = ws.head[e^1]
			if v == start {
				break
			}
		}
		if bottleneck >= InfCap/2 {
			return ErrUnbounded
		}
		for {
			e := ws.prevArc[v]
			ws.res[e] -= bottleneck
			ws.res[e^1] += bottleneck
			v = ws.head[e^1]
			if v == start {
				break
			}
		}
	}
}

func (ws *Workspace) heapPush(it heapEntry) {
	ws.heap = append(ws.heap, it)
	i := len(ws.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if ws.heap[p].dist <= ws.heap[i].dist {
			break
		}
		ws.heap[p], ws.heap[i] = ws.heap[i], ws.heap[p]
		i = p
	}
}

func (ws *Workspace) heapPop() heapEntry {
	top := ws.heap[0]
	last := len(ws.heap) - 1
	ws.heap[0] = ws.heap[last]
	ws.heap = ws.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(ws.heap) && ws.heap[l].dist < ws.heap[s].dist {
			s = l
		}
		if r < len(ws.heap) && ws.heap[r].dist < ws.heap[s].dist {
			s = r
		}
		if s == i {
			break
		}
		ws.heap[i], ws.heap[s] = ws.heap[s], ws.heap[i]
		i = s
	}
	return top
}
