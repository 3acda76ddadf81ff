package geom

// AreaTable answers exact union-coverage area queries over a static set of
// (possibly overlapping) rectangles. Build runs one scanline sweep and
// stores the union as sorted y-bands of disjoint x-intervals with
// prefix-summed widths; vertically contiguous bands with identical
// interval sets are merged. OverlapArea then resolves a query in
// O(log n + bands overlapped) with exact integer arithmetic — no per-query
// sweep — which makes it the kernel for window-density accumulation and
// the per-cell overlap queries of candidate generation and sizing, where
// the same static shape set (wires, free regions) is queried thousands of
// times.
//
// Build is the active-set y-sweep of scanline.go over the input's
// y-extent, O(n log n + r·k) for r rows of k active rects, and stores no
// raster, so cost never degenerates with coordinate-rich inputs. Query
// results are bit-identical to UnionArea over the input clipped to the
// query rectangle.
//
// The zero value is an empty table; Build may be called repeatedly and
// reuses all internal storage. An AreaTable is not safe for concurrent
// use.
type AreaTable struct {
	bands []atBand
	// Interval endpoints grouped by band, indexed [band.lo, band.hi);
	// within a band the intervals are sorted, disjoint and non-touching.
	ixl, ixh []int64
	// pre[k] is the total width of intervals [0, k) — band-local sums come
	// out as differences since a band's intervals are contiguous in k.
	pre   []int64
	total int64
	curr  []ival // build scratch
}

// atBand is one maximal y-range with a fixed covered x-interval set.
// Bands are sorted by y0 and non-overlapping (gaps mean no coverage).
type atBand struct {
	y0, y1 int64
	lo, hi int32
}

// Build (re)initializes the table over rects. Empty rectangles are
// ignored.
func (t *AreaTable) Build(rects []Rect) {
	t.bands = t.bands[:0]
	t.ixl, t.ixh = t.ixl[:0], t.ixh[:0]
	t.pre = t.pre[:0]
	t.total = 0
	y0, y1, ok := yExtent(rects)
	if !ok {
		return
	}
	sc := sweepPool.Get().(*sweepScratch)
	sc.begin(rects, y0, y1)
	curr := t.curr
	for y := y0; y < y1; {
		curr = sc.union(curr)
		next := sc.advance()
		if len(curr) > 0 {
			t.addBand(y, next, curr)
		}
		y = next
	}
	t.curr = curr
	sc.rects = nil // do not pin the caller's slice in the pool
	sweepPool.Put(sc)
}

// addBand appends the band [y0,y1) × ivs, extending the previous band
// instead when it is vertically contiguous with the same interval set.
func (t *AreaTable) addBand(y0, y1 int64, ivs []ival) {
	if n := len(t.bands); n > 0 {
		b := &t.bands[n-1]
		if b.y1 == y0 && t.sameAsBand(*b, ivs) {
			t.total += (t.pre[b.hi] - t.pre[b.lo]) * (y1 - y0)
			b.y1 = y1
			return
		}
	}
	if len(t.pre) == 0 {
		t.pre = append(t.pre, 0)
	}
	lo := Idx32(len(t.ixl))
	run := t.pre[len(t.pre)-1]
	for _, iv := range ivs {
		t.ixl = append(t.ixl, iv.xl)
		t.ixh = append(t.ixh, iv.xh)
		run += iv.xh - iv.xl
		t.pre = append(t.pre, run)
	}
	hi := Idx32(len(t.ixl))
	t.bands = append(t.bands, atBand{y0, y1, lo, hi})
	t.total += (t.pre[hi] - t.pre[lo]) * (y1 - y0)
}

// sameAsBand reports whether ivs equals band b's stored interval set.
func (t *AreaTable) sameAsBand(b atBand, ivs []ival) bool {
	if int(b.hi-b.lo) != len(ivs) {
		return false
	}
	for i, iv := range ivs {
		k := int(b.lo) + i
		if t.ixl[k] != iv.xl || t.ixh[k] != iv.xh {
			return false
		}
	}
	return true
}

// Empty reports whether the table covers no area at all.
func (t *AreaTable) Empty() bool { return len(t.bands) == 0 }

// TotalArea returns the exact union area of the input set.
func (t *AreaTable) TotalArea() int64 { return t.total }

// OverlapArea returns the exact area of q covered by the union of the
// input set — bit-identical to UnionArea over the inputs clipped to q.
func (t *AreaTable) OverlapArea(q Rect) int64 {
	if q.Empty() || len(t.bands) == 0 {
		return 0
	}
	bands := t.bands
	// First band ending after the query's bottom edge.
	lo, hi := 0, len(bands)
	for lo < hi {
		mid := (lo + hi) / 2
		if bands[mid].y1 <= q.YL {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	var area int64
	for bi := lo; bi < len(bands) && bands[bi].y0 < q.YH; bi++ {
		b := bands[bi]
		dy := min64(b.y1, q.YH) - max64(b.y0, q.YL)
		if dy <= 0 {
			continue
		}
		if w := t.coveredWidth(b, q.XL, q.XH); w > 0 {
			area += w * dy
		}
	}
	return area
}

// coveredWidth returns the covered length of [xl,xh) within band b: the
// prefix-sum of the fully spanned intervals minus the clipped ends.
func (t *AreaTable) coveredWidth(b atBand, xl, xh int64) int64 {
	ixl, ixh := t.ixl, t.ixh
	// First interval in the band ending after xl.
	lo, hi := int(b.lo), int(b.hi)
	for lo < hi {
		mid := (lo + hi) / 2
		if ixh[mid] <= xl {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo
	// First interval starting at or after xh.
	lo, hi = i, int(b.hi)
	for lo < hi {
		mid := (lo + hi) / 2
		if ixl[mid] < xh {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	j := lo
	if i >= j {
		return 0
	}
	w := t.pre[j] - t.pre[i]
	if ixl[i] < xl {
		w -= xl - ixl[i]
	}
	if ixh[j-1] > xh {
		w -= ixh[j-1] - xh
	}
	return w
}
