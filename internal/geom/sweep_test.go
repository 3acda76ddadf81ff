package geom

import (
	"math/rand"
	"testing"
)

// Bias bits of decodeSweep, one bias byte per hole.
const (
	snapWindowYL = 1 << iota // YL := window.YL (seeds the difference sweep)
	snapWindowYH             // YH := window.YH (never closes in it)
	snapInputYL              // YL := first hole's YL (seeds the union sweeps)
	snapInputYH              // YH := first hole's YH
	tieXL                    // XL := previous hole's XL (ties in the active set)
	duplicate                // copy the previous hole outright
)

// decodeSweep is decodeDifference with the holes pulled toward the cases
// the sweep treats specially: rects starting at the bottom of the sweep
// or reaching its top, equal left edges and duplicate rects. Snapping may
// empty a hole, which every sweep must then ignore.
func decodeSweep(data, bias []byte) (Rect, []Rect) {
	window, holes := decodeDifference(data)
	for i := range holes {
		if i >= len(bias) {
			break
		}
		b, h := bias[i], &holes[i]
		if b&snapWindowYL != 0 {
			h.YL = window.YL
		}
		if b&snapWindowYH != 0 {
			h.YH = window.YH
		}
		if b&snapInputYL != 0 {
			h.YL = holes[0].YL
		}
		if b&snapInputYH != 0 {
			h.YH = holes[0].YH
		}
		if i == 0 {
			continue
		}
		if b&tieXL != 0 {
			h.XL = holes[i-1].XL
		}
		if b&duplicate != 0 {
			*h = holes[i-1]
		}
	}
	return window, holes
}

// unitRaster is the brute-force oracle of the union sweeps: the unit
// cells of the bounding box, marked where some rect covers them.
type unitRaster struct {
	bb Rect
	on []bool
}

func newUnitRaster(rects []Rect) unitRaster {
	var nonEmpty []Rect
	for _, r := range rects {
		if !r.Empty() {
			nonEmpty = append(nonEmpty, r)
		}
	}
	u := unitRaster{bb: BoundingBox(nonEmpty)}
	u.on = make([]bool, u.bb.Area())
	for _, r := range nonEmpty {
		for y := r.YL; y < r.YH; y++ {
			for x := r.XL; x < r.XH; x++ {
				u.on[(y-u.bb.YL)*u.bb.W()+x-u.bb.XL] = true
			}
		}
	}
	return u
}

// area counts the covered cells inside q.
func (u unitRaster) area(q Rect) int64 {
	c := q.Intersect(u.bb)
	var a int64
	for y := c.YL; y < c.YH; y++ {
		for x := c.XL; x < c.XH; x++ {
			if u.on[(y-u.bb.YL)*u.bb.W()+x-u.bb.XL] {
				a++
			}
		}
	}
	return a
}

// checkSweep checks every user of the y-sweep on one input: the
// difference in both orientations against the per-row oracle, and
// UnionArea and a reused AreaTable against the unit raster.
func checkSweep(t *testing.T, at *AreaTable, window Rect, holes []Rect) {
	t.Helper()
	checkDifference(t, window, holes)

	u := newUnitRaster(holes)
	all := u.area(u.bb)
	if got := UnionArea(holes); got != all {
		t.Fatalf("UnionArea(%v) = %d, raster %d", holes, got, all)
	}
	// Build over a prefix first so the full build reuses dirty storage.
	at.Build(holes[:len(holes)/2])
	at.Build(holes)
	if got := at.TotalArea(); got != all {
		t.Fatalf("AreaTable.TotalArea(%v) = %d, raster %d", holes, got, all)
	}
	queries := []Rect{window, u.bb, R(u.bb.XL+1, u.bb.YL-3, u.bb.XH-2, u.bb.YH+1)}
	for i, h := range holes {
		if i == 8 {
			break
		}
		queries = append(queries, h, R(h.XL-2, h.YL+1, h.XH+3, h.YH+5))
	}
	for _, q := range queries {
		if got, want := at.OverlapArea(q), u.area(q); got != want {
			t.Fatalf("AreaTable.OverlapArea(%v) over %v = %d, raster %d", q, holes, got, want)
		}
	}
}

// FuzzSweep cross-checks every sweep user against an independent oracle
// on inputs biased toward seeded rects, rects that never close, tied left
// edges and duplicates.
func FuzzSweep(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	for n := 0; n < 64; n++ {
		data, bias := make([]byte, 4*(1+n%24)), make([]byte, n%24)
		rng.Read(data)
		rng.Read(bias)
		f.Add(data, bias)
	}
	// Every hole spans the window; all share one left edge; duplicates.
	f.Add([]byte{0, 0, 30, 20, 3, 0, 5, 9, 9, 0, 4, 9, 20, 5, 6, 3}, []byte{3, 3, 3})
	f.Add([]byte{0, 0, 30, 20, 3, 2, 5, 9, 9, 4, 4, 9, 20, 5, 6, 3}, []byte{0, 16, 16})
	f.Add([]byte{0, 0, 30, 20, 3, 2, 5, 9, 9, 4, 4, 9, 20, 5, 6, 3}, []byte{0, 32, 32 | 12})
	var at AreaTable
	f.Fuzz(func(t *testing.T, data, bias []byte) {
		window, holes := decodeSweep(data, bias)
		checkSweep(t, &at, window, holes)
	})
}
