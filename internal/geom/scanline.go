package geom

import (
	"cmp"
	"slices"
	"sync"
)

// This file implements scanline boolean operations over sets of (possibly
// overlapping) rectangles: exact union area and difference (free-space
// extraction). AreaTable.Build and Polygon.ToRects share its row
// machinery.
//
// Every operation is one y-sweep over [y0, y1). begin seeds the active
// set with the rectangles that start at y0, sorted once by left edge,
// and turns only interior edges into events: a rectangle reaching y1
// never gets a close event. The active set holds copies of the covering
// rectangles ordered by left edge, so each row's union (or its
// complement within the window) is one max-walk over contiguous memory
// and overlapping rectangles need no counts.
// Vertically contiguous rows with identical interval sets merge into one
// slab. In free-space extraction most holes cross the whole (thin)
// window, so most of them only ever seed the sweep.
//
// These run in the innermost loops of candidate generation, ingest and
// density accounting, so they are written for zero steady-state
// allocation: event lists, the active set, interval buffers and
// open-slab stacks live in a sync.Pool-backed scratch arena, and the
// Append* forms write into a caller-owned slice.

// sweepEvent is an interior horizontal edge of rectangle id: the bottom
// edge when open, the top edge otherwise.
type sweepEvent struct {
	y    int64
	id   int32
	open bool
}

// ival is the half-open x-interval [xl, xh).
type ival struct{ xl, xh int64 }

// openSlab tracks a rectangle currently being extended vertically while
// sweeping.
type openSlab struct {
	xl, xh, yl int64
}

// sweepScratch bundles the reusable buffers of one sweep. Instances
// ping-pong through sweepPool so concurrent sweeps never share state.
type sweepScratch struct {
	rects  []Rect // the swept rectangles, indexed by id
	active []Rect // the rects covering the current row, by XL
	evs    []sweepEvent
	next   int   // first event not yet applied
	y1     int64 // top of the sweep
	clip   []Rect
	row    []ival
	prev   []ival // intervals of the last flushed row
	open   []openSlab
}

var sweepPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// begin starts a sweep of rects over [y0, y1); every non-empty rect must
// lie within that y-range and empty ones are ignored. Rects starting at
// y0 seed the active set, the others open at an event, and only rects
// ending below y1 get a close event, so every event lies strictly inside
// (y0, y1).
func (sc *sweepScratch) begin(rects []Rect, y0, y1 int64) {
	active, evs := sc.active[:0], sc.evs[:0]
	for i, r := range rects {
		if r.Empty() {
			continue
		}
		id := Idx32(i)
		if r.YL == y0 {
			active = append(active, r)
		} else {
			evs = append(evs, sweepEvent{r.YL, id, true})
		}
		if r.YH < y1 {
			evs = append(evs, sweepEvent{r.YH, id, false})
		}
	}
	slices.SortFunc(active, func(a, b Rect) int { return cmp.Compare(a.XL, b.XL) })
	// The order within one y does not matter: advance applies all of its
	// events before the row is read.
	slices.SortFunc(evs, func(a, b sweepEvent) int { return cmp.Compare(a.y, b.y) })
	sc.rects, sc.active, sc.evs, sc.next, sc.y1 = rects, active, evs, 0, y1
	sc.startRows()
}

// startRows empties the row state that flushRow merges against.
func (sc *sweepScratch) startRows() { sc.open, sc.prev = sc.open[:0], sc.prev[:0] }

// advance applies every event at the next event y and returns that y, or
// returns y1 once no event is left.
func (sc *sweepScratch) advance() int64 {
	evs, i := sc.evs, sc.next
	if i == len(evs) {
		return sc.y1
	}
	y := evs[i].y
	j, closed := i, false
	for ; j < len(evs) && evs[j].y == y; j++ {
		closed = closed || !evs[j].open
	}
	if closed {
		// Every active rect ending at or below y has had its close event.
		active := sc.active[:0]
		for _, r := range sc.active {
			if r.YH > y {
				active = append(active, r)
			}
		}
		sc.active = active
	}
	for ; i < j; i++ {
		if evs[i].open {
			sc.insert(sc.rects[evs[i].id])
		}
	}
	sc.next = j
	return y
}

// insert adds r to the active set after every rect with the same or a
// smaller left edge.
func (sc *sweepScratch) insert(r Rect) {
	active := sc.active
	lo, hi := 0, len(active)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if active[mid].XL <= r.XL {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	sc.active = slices.Insert(active, lo, r)
}

// union appends the current row's union to dst[:0] as sorted, disjoint
// intervals with touching neighbours merged.
func (sc *sweepScratch) union(dst []ival) []ival {
	dst = dst[:0]
	for _, r := range sc.active {
		if n := len(dst); n > 0 && r.XL <= dst[n-1].xh {
			dst[n-1].xh = max(dst[n-1].xh, r.XH)
			continue
		}
		dst = append(dst, ival{r.XL, r.XH})
	}
	return dst
}

// gaps appends to dst[:0] the sorted x-intervals of [xl,xh) that the
// current row leaves uncovered. Every active rect must lie within
// [xl,xh).
func (sc *sweepScratch) gaps(dst []ival, xl, xh int64) []ival {
	dst = dst[:0]
	cur := xl
	for _, r := range sc.active {
		if r.XL > cur {
			dst = append(dst, ival{cur, r.XL})
		}
		cur = max(cur, r.XH)
	}
	if cur < xh {
		dst = append(dst, ival{cur, xh})
	}
	return dst
}

// flushRow starts the row at y whose intervals are ivs. If ivs equals
// the previous row's set the open slabs just grow taller; otherwise they
// close at y and one new slab opens per interval. Closed slabs are
// appended to dst.
func (sc *sweepScratch) flushRow(dst []Rect, y int64, ivs []ival) []Rect {
	if slices.Equal(sc.prev, ivs) {
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

// yExtent returns the y-range spanned by the non-empty rects; ok is false
// when there are none.
func yExtent(rects []Rect) (y0, y1 int64, ok bool) {
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		if !ok {
			y0, y1, ok = r.YL, r.YH, true
			continue
		}
		y0, y1 = min(y0, r.YL), max(y1, r.YH)
	}
	return y0, y1, ok
}

// UnionArea returns the exact area covered by the union of rects,
// counting overlapping regions once. It runs one y-sweep in
// O(n log n + r·k), r rows and k the active set size.
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
	y0, y1, ok := yExtent(rects)
	if !ok {
		return 0
	}
	sc := sweepPool.Get().(*sweepScratch)
	sc.begin(rects, y0, y1)
	row := sc.row
	var area int64
	for y := y0; y < y1; {
		row = sc.union(row)
		next := sc.advance()
		for _, iv := range row {
			area += (iv.xh - iv.xl) * (next - y)
		}
		y = next
	}
	sc.row = row
	sc.rects = nil // do not pin the caller's slice in the pool
	sweepPool.Put(sc)
	return area
}

// AppendDifference appends window minus the union of holes to dst,
// decomposed into disjoint maximal horizontal slabs, and returns the
// extended slice. This is the free-space extraction primitive used to
// derive feasible fill regions and zero-overlay candidates. Holes that do
// not overlap the window contribute nothing. With a warmed dst it does
// not allocate.
func AppendDifference(dst []Rect, window Rect, holes []Rect) []Rect {
	return AppendDifferenceOriented(dst, window, holes, false)
}

// AppendDifferenceOriented is AppendDifference with the slab orientation
// picked by vertical: true yields maximal vertical slabs, which around
// vertical wires are far fewer and fatter than horizontal ones.
func AppendDifferenceOriented(dst []Rect, window Rect, holes []Rect, vertical bool) []Rect {
	if window.Empty() {
		return dst
	}
	sc := sweepPool.Get().(*sweepScratch)
	// Clip the holes to the window, transposing the problem for vertical
	// slabs.
	clip := sc.clip[:0]
	for _, h := range holes {
		if c := h.Intersect(window); !c.Empty() {
			if vertical {
				c = c.Transpose()
			}
			clip = append(clip, c)
		}
	}
	sc.clip = clip
	n := len(dst)
	if vertical {
		window = window.Transpose()
	}
	dst = sc.appendDifference(dst, window, clip)
	sweepPool.Put(sc)
	if vertical {
		for i := n; i < len(dst); i++ {
			dst[i] = dst[i].Transpose()
		}
	}
	return dst
}

// appendDifference runs the difference sweep of the non-empty window over
// holes already clipped to it: the gaps of each row are its free interval
// set, and flushRow merges vertically identical rows into taller slabs.
func (sc *sweepScratch) appendDifference(dst []Rect, window Rect, holes []Rect) []Rect {
	if len(holes) == 0 {
		return append(dst, window)
	}
	sc.begin(holes, window.YL, window.YH)
	free := sc.row
	for y := window.YL; y < window.YH; y = sc.advance() {
		free = sc.gaps(free, window.XL, window.XH)
		dst = sc.flushRow(dst, y, free)
	}
	sc.row = free
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

// DifferenceOriented picks the slab orientation: vertical=true yields
// vertical slabs.
func DifferenceOriented(window Rect, holes []Rect, vertical bool) []Rect {
	return AppendDifferenceOriented(nil, window, holes, vertical)
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
