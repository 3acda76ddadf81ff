package geom

import (
	"slices"
	"sync"
)

// This file implements scanline boolean operations over sets of (possibly
// overlapping) rectangles: exact union area, union decomposition into
// disjoint maximal horizontal slabs, difference (free-space extraction),
// and pairwise intersection of two rectangle sets.
//
// Every operation is one y-sweep: the open/close events of the input
// rectangles are sorted by y once, the active x-cover lives in a coverage
// structure that splices its sorted interval list in place instead of
// re-sorting, and at each distinct y the sweep reads what it needs off
// that cover — its length (UnionArea), its intervals (UnionSlabs) or its
// complement within the window (Difference). Vertically contiguous rows
// with identical interval sets merge into one slab.
//
// These run in the innermost loops of candidate generation, ingest and
// density accounting, so they are written for zero steady-state
// allocation: event lists, interval buffers and open-slab stacks live in
// a sync.Pool-backed scratch arena, and the Append* forms write into a
// caller-owned slice.

// sweepEvent is a horizontal-edge event of the y-sweep.
type sweepEvent struct {
	y      int64
	xl, xh int64
	delta  int // +1 open, -1 close
}

// openSlab tracks a rectangle currently being extended vertically while
// sweeping.
type openSlab struct {
	xl, xh, yl int64
}

// sweepScratch bundles the reusable buffers of one sweep. Instances
// ping-pong through sweepPool so concurrent sweeps never share state.
type sweepScratch struct {
	evs        []sweepEvent
	cov        coverage
	prev, curr []covIval
	open       []openSlab
	pieces     []Rect
}

var sweepPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// buildEvents fills sc.evs with the open/close events of rects, sorted by
// y, and returns the slice (empty if every rect is empty).
func (sc *sweepScratch) buildEvents(rects []Rect) []sweepEvent {
	evs := sc.evs[:0]
	for _, r := range rects {
		if !r.Empty() {
			evs = appendEvents(evs, r)
		}
	}
	sortEvents(evs)
	sc.evs = evs
	return evs
}

// appendEvents appends the open and close events of the non-empty r.
func appendEvents(evs []sweepEvent, r Rect) []sweepEvent {
	return append(evs,
		sweepEvent{r.YL, r.XL, r.XH, +1},
		sweepEvent{r.YH, r.XL, r.XH, -1})
}

// sortEvents orders events by y. The order within one y does not matter:
// a sweep applies all of them before it reads the cover.
func sortEvents(evs []sweepEvent) {
	slices.SortFunc(evs, func(a, b sweepEvent) int {
		switch {
		case a.y < b.y:
			return -1
		case a.y > b.y:
			return 1
		}
		return 0
	})
}

// flushRow starts the row at y whose intervals are ivs. If ivs equals
// the previous row's set the open slabs just grow taller; otherwise they
// close at y and one new slab opens per interval. Closed slabs are
// appended to dst.
func (sc *sweepScratch) flushRow(dst []Rect, y int64, ivs []covIval) []Rect {
	if sameIvals(sc.prev, ivs) {
		return dst
	}
	for _, s := range sc.open {
		if y > s.yl {
			dst = append(dst, Rect{s.xl, s.yl, s.xh, y})
		}
	}
	open := sc.open[:0]
	for _, iv := range ivs {
		open = append(open, openSlab{iv.xl, iv.xh, y})
	}
	sc.open = open
	sc.prev = append(sc.prev[:0], ivs...)
	return dst
}

// UnionArea returns the exact area covered by the union of rects,
// counting overlapping regions once. It runs a y-sweep with an x-interval
// coverage structure in O(n log n + n·k) where k is the active set size.
func UnionArea(rects []Rect) int64 {
	// Fast paths for the tiny inputs that dominate per-cell overlay
	// queries: no sweep, no scratch checkout.
	switch len(rects) {
	case 0:
		return 0
	case 1:
		return rects[0].Area()
	case 2:
		return rects[0].Area() + rects[1].Area() - rects[0].Intersect(rects[1]).Area()
	}
	sc := sweepPool.Get().(*sweepScratch)
	evs := sc.buildEvents(rects)
	var area int64
	if len(evs) > 0 {
		cov := &sc.cov
		cov.reset()
		prevY := evs[0].y
		for i := 0; i < len(evs); {
			y := evs[i].y
			area += cov.total() * (y - prevY)
			for i < len(evs) && evs[i].y == y {
				cov.update(evs[i].xl, evs[i].xh, evs[i].delta)
				i++
			}
			prevY = y
		}
	}
	sweepPool.Put(sc)
	return area
}

// coverage maintains multiset interval coverage on the x axis as a sorted
// list of disjoint intervals with positive counts. update splices the
// affected range in place (binary search + single rebuild into a
// ping-pong buffer), so a sweep performs no sorting and no allocation
// once the two buffers have grown to the working-set size.
type coverage struct {
	ivals []covIval
	buf   []covIval
}

type covIval struct {
	xl, xh int64
	n      int
}

func (c *coverage) reset() { c.ivals = c.ivals[:0] }

// update adds delta to the coverage count of [xl,xh). Intervals whose
// count reaches zero are dropped; callers only ever close ranges they
// previously opened, so counts never go negative.
func (c *coverage) update(xl, xh int64, delta int) {
	if xl >= xh {
		return
	}
	ivals := c.ivals
	// First interval that ends after xl: everything before it is
	// untouched.
	lo, hi := 0, len(ivals)
	for lo < hi {
		mid := (lo + hi) / 2
		if ivals[mid].xh <= xl {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	buf := append(c.buf[:0], ivals[:lo]...)
	cur := xl
	i := lo
	for ; i < len(ivals) && ivals[i].xl < xh; i++ {
		iv := ivals[i]
		if iv.xl > cur {
			// Gap [cur, iv.xl) inside the update range.
			if delta > 0 {
				buf = append(buf, covIval{cur, iv.xl, delta})
			}
			cur = iv.xl
		} else if iv.xl < cur {
			// Left part of iv sticks out before xl: keep its count.
			buf = append(buf, covIval{iv.xl, cur, iv.n})
		}
		mid := min64(iv.xh, xh)
		if cur < mid {
			if n := iv.n + delta; n != 0 {
				buf = append(buf, covIval{cur, mid, n})
			}
			cur = mid
		}
		if iv.xh > xh {
			// Right part sticks out past xh: keep its count.
			buf = append(buf, covIval{xh, iv.xh, iv.n})
		}
	}
	if cur < xh && delta > 0 {
		buf = append(buf, covIval{cur, xh, delta})
	}
	buf = append(buf, ivals[i:]...)
	c.ivals, c.buf = buf, ivals
}

// total returns the covered length (count > 0).
func (c *coverage) total() int64 {
	var t int64
	for _, iv := range c.ivals {
		t += iv.xh - iv.xl
	}
	return t
}

// coveredInto appends the sorted disjoint x-intervals with positive
// coverage to dst[:0], merging touching neighbours.
func (c *coverage) coveredInto(dst []covIval) []covIval {
	dst = dst[:0]
	for _, iv := range c.ivals {
		if n := len(dst); n > 0 && dst[n-1].xh == iv.xl {
			dst[n-1].xh = iv.xh
			continue
		}
		dst = append(dst, covIval{iv.xl, iv.xh, 1})
	}
	return dst
}

// complementInto appends to dst[:0] the sorted x-intervals of [xl,xh)
// with zero coverage. Every covered interval must lie within [xl,xh).
func (c *coverage) complementInto(dst []covIval, xl, xh int64) []covIval {
	dst = dst[:0]
	cur := xl
	for _, iv := range c.ivals {
		if iv.xl > cur {
			dst = append(dst, covIval{cur, iv.xl, 1})
		}
		cur = iv.xh
	}
	if cur < xh {
		dst = append(dst, covIval{cur, xh, 1})
	}
	return dst
}

// UnionSlabs decomposes the union of rects into disjoint rectangles
// (maximal horizontal slabs). The output rectangles are non-overlapping
// and their total area equals UnionArea(rects).
func UnionSlabs(rects []Rect) []Rect {
	sc := sweepPool.Get().(*sweepScratch)
	evs := sc.buildEvents(rects)
	cov := &sc.cov
	cov.reset()
	sc.open, sc.prev = sc.open[:0], sc.prev[:0]
	var out []Rect
	curr := sc.curr
	for i := 0; i < len(evs); {
		y := evs[i].y
		for i < len(evs) && evs[i].y == y {
			cov.update(evs[i].xl, evs[i].xh, evs[i].delta)
			i++
		}
		curr = cov.coveredInto(curr)
		out = sc.flushRow(out, y, curr)
	}
	// All rects are closed by their own close event, so the cover is empty
	// after the last event and no slab is left open.
	sc.curr = curr
	sweepPool.Put(sc)
	return out
}

func sameIvals(a, b []covIval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].xl != b[i].xl || a[i].xh != b[i].xh {
			return false
		}
	}
	return true
}

// AppendDifference appends window minus the union of holes to dst,
// decomposed into disjoint maximal horizontal slabs, and returns the
// extended slice. This is the free-space extraction primitive used to
// derive feasible fill regions and zero-overlay candidates. Holes that do
// not overlap the window contribute nothing. With a warmed dst it does
// not allocate.
func AppendDifference(dst []Rect, window Rect, holes []Rect) []Rect {
	if window.Empty() {
		return dst
	}
	sc := sweepPool.Get().(*sweepScratch)
	dst = sc.appendDifference(dst, window, holes)
	sweepPool.Put(sc)
	return dst
}

// AppendDifferenceOriented is AppendDifference with the slab orientation
// picked by vertical: true yields maximal vertical slabs, which around
// vertical wires are far fewer and fatter than horizontal ones.
func AppendDifferenceOriented(dst []Rect, window Rect, holes []Rect, vertical bool) []Rect {
	if !vertical {
		return AppendDifference(dst, window, holes)
	}
	if window.Empty() {
		return dst
	}
	sc := sweepPool.Get().(*sweepScratch)
	// Sweep the transposed problem. Only holes overlapping the window are
	// transposed; the rest would be clipped away anyway.
	ht := sc.pieces[:0]
	for _, h := range holes {
		if c := h.Intersect(window); !c.Empty() {
			ht = append(ht, c.Transpose())
		}
	}
	sc.pieces = ht
	n := len(dst)
	dst = sc.appendDifference(dst, window.Transpose(), ht)
	sweepPool.Put(sc)
	for i := n; i < len(dst); i++ {
		dst[i] = dst[i].Transpose()
	}
	return dst
}

// appendDifference runs the difference sweep of the non-empty window.
// The open/close events of the clipped holes are sorted by y once; at
// each distinct y the complement of the active x-cover within the window
// is the free interval set of the row starting there, and flushRow merges
// vertically identical rows into taller slabs.
func (sc *sweepScratch) appendDifference(dst []Rect, window Rect, holes []Rect) []Rect {
	evs := sc.evs[:0]
	for _, h := range holes {
		if c := h.Intersect(window); !c.Empty() {
			evs = appendEvents(evs, c)
		}
	}
	sc.evs = evs
	if len(evs) == 0 {
		return append(dst, window)
	}
	sortEvents(evs)
	cov := &sc.cov
	cov.reset()
	sc.open, sc.prev = sc.open[:0], sc.prev[:0]
	free := sc.curr
	// Clipped events lie in [window.YL, window.YH]; the ones at window.YH
	// only close rows that end there.
	i := 0
	for y := window.YL; y < window.YH; y = evs[i].y {
		for i < len(evs) && evs[i].y == y {
			cov.update(evs[i].xl, evs[i].xh, evs[i].delta)
			i++
		}
		free = cov.complementInto(free, window.XL, window.XH)
		dst = sc.flushRow(dst, y, free)
		if i == len(evs) {
			break
		}
	}
	sc.curr = free
	return sc.flushRow(dst, window.YH, nil)
}

// Difference returns window minus the union of holes as horizontal slabs
// (freshly allocated; nil when nothing is free).
func Difference(window Rect, holes []Rect) []Rect { return AppendDifference(nil, window, holes) }

// Transpose swaps the axes of r.
func (r Rect) Transpose() Rect { return Rect{r.YL, r.XL, r.YH, r.XH} }

// TransposeRects swaps the axes of every rect (freshly allocated).
func TransposeRects(rs []Rect) []Rect {
	out := make([]Rect, len(rs))
	for i, r := range rs {
		out[i] = r.Transpose()
	}
	return out
}

// DifferenceVert is Difference with the output decomposed into vertical
// (maximal-height) slabs instead of horizontal ones.
func DifferenceVert(window Rect, holes []Rect) []Rect {
	return AppendDifferenceOriented(nil, window, holes, true)
}

// DifferenceOriented picks the slab orientation: vertical=true yields
// vertical slabs.
func DifferenceOriented(window Rect, holes []Rect, vertical bool) []Rect {
	return AppendDifferenceOriented(nil, window, holes, vertical)
}

// IntersectSets returns the disjoint decomposition of the intersection of
// the unions of a and b: region covered by at least one rect of a AND at
// least one rect of b.
func IntersectSets(a, b []Rect) []Rect {
	// Compute pairwise intersections then take their union decomposition
	// to remove double counting. Pairwise cost is acceptable at window
	// granularity; a sweep would be used for full-chip scale.
	sc := sweepPool.Get().(*sweepScratch)
	pieces := sc.pieces[:0]
	for _, ra := range a {
		for _, rb := range b {
			c := ra.Intersect(rb)
			if !c.Empty() {
				pieces = append(pieces, c)
			}
		}
	}
	sc.pieces = pieces
	var out []Rect
	if len(pieces) <= 1 {
		out = append(out, pieces...)
	} else {
		out = UnionSlabs(pieces)
	}
	sweepPool.Put(sc)
	return out
}

// OverlapAreaSets returns the area of the intersection of the unions of a
// and b.
func OverlapAreaSets(a, b []Rect) int64 {
	sc := sweepPool.Get().(*sweepScratch)
	pieces := sc.pieces[:0]
	for _, ra := range a {
		for _, rb := range b {
			c := ra.Intersect(rb)
			if !c.Empty() {
				pieces = append(pieces, c)
			}
		}
	}
	sc.pieces = pieces
	area := UnionArea(pieces)
	sweepPool.Put(sc)
	return area
}

// BoundingBox returns the bounding box of rects (empty Rect if none).
func BoundingBox(rects []Rect) Rect {
	var bb Rect
	for _, r := range rects {
		bb = bb.Union(r)
	}
	return bb
}

// TotalArea sums rect areas without overlap removal.
func TotalArea(rects []Rect) int64 {
	var t int64
	for _, r := range rects {
		t += r.Area()
	}
	return t
}
