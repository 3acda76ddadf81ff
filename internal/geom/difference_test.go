package geom

import (
	"math/rand"
	"slices"
	"testing"
)

// rowDifference is the per-row difference algorithm the sweep replaced,
// kept as the oracle: for every band between consecutive distinct y
// boundaries it rescans all clipped holes, sorts the covered x-intervals
// and complements them, merging vertically identical rows into slabs.
func rowDifference(window Rect, holes []Rect) []Rect {
	if window.Empty() {
		return nil
	}
	var clipped []Rect
	for _, h := range holes {
		if c := h.Intersect(window); !c.Empty() {
			clipped = append(clipped, c)
		}
	}
	if len(clipped) == 0 {
		return []Rect{window}
	}
	ys := []int64{window.YL, window.YH}
	for _, h := range clipped {
		ys = append(ys, h.YL, h.YH)
	}
	slices.Sort(ys)
	ys = slices.Compact(ys)

	var open []openSlab
	var prevFree []ival
	var out []Rect
	flush := func(y int64, free []ival) {
		if slices.Equal(prevFree, free) {
			return
		}
		for _, s := range open {
			if y > s.yl {
				out = append(out, Rect{s.xl, s.yl, s.xh, y})
			}
		}
		open = open[:0]
		for _, iv := range free {
			open = append(open, openSlab{iv.xl, iv.xh, y})
		}
		prevFree = append(prevFree[:0], free...)
	}
	for i := 0; i+1 < len(ys); i++ {
		yl, yh := ys[i], ys[i+1]
		var xs []ival
		for _, h := range clipped {
			if h.YL <= yl && h.YH >= yh {
				xs = append(xs, ival{h.XL, h.XH})
			}
		}
		slices.SortFunc(xs, func(a, b ival) int {
			switch {
			case a.xl < b.xl:
				return -1
			case a.xl > b.xl:
				return 1
			}
			return 0
		})
		var free []ival
		cur := window.XL
		for _, iv := range xs {
			if iv.xl > cur {
				free = append(free, ival{cur, iv.xl})
			}
			if iv.xh > cur {
				cur = iv.xh
			}
		}
		if cur < window.XH {
			free = append(free, ival{cur, window.XH})
		}
		flush(yl, free)
	}
	flush(window.YH, nil)
	return out
}

// rowDifferenceOriented is the oracle's vertical-slab form: transpose
// everything, run the per-row algorithm, transpose back.
func rowDifferenceOriented(window Rect, holes []Rect, vertical bool) []Rect {
	if !vertical {
		return rowDifference(window, holes)
	}
	out := rowDifference(window.Transpose(), TransposeRects(holes))
	for i := range out {
		out[i] = out[i].Transpose()
	}
	return out
}

// decodeDifference turns fuzz bytes into a window and holes on a small
// coordinate range, so edges coincide often.
func decodeDifference(data []byte) (Rect, []Rect) {
	rect := func(b []byte) Rect {
		x0, y0 := int64(int8(b[0]))%40, int64(int8(b[1]))%40
		return R(x0, y0, x0+int64(b[2]%48), y0+int64(b[3]%48))
	}
	window := R(0, 0, 32, 24)
	if len(data) >= 4 {
		window, data = rect(data), data[4:]
	}
	var holes []Rect
	for ; len(data) >= 4; data = data[4:] {
		holes = append(holes, rect(data))
	}
	return window, holes
}

// outsideHoles returns holes that do not overlap window: around it,
// touching its edges, empty, or far away.
func outsideHoles(window Rect, seed int64) []Rect {
	rng := rand.New(rand.NewSource(seed))
	var out []Rect
	for i := 0; i < 6; i++ {
		d := rng.Int63n(5)
		w, h := 1+rng.Int63n(20), 1+rng.Int63n(20)
		x, y := window.XL-10+rng.Int63n(window.W()+20), window.YL-10+rng.Int63n(window.H()+20)
		out = append(out,
			R(window.XH+d, y, window.XH+d+w, y+h),
			R(window.XL-d-w, y, window.XL-d, y+h),
			R(x, window.YH+d, x+w, window.YH+d+h),
			R(x, window.YL-d-h, x+w, window.YL-d),
			R(x, y, x, y+h))
	}
	return out
}

func checkDifference(t *testing.T, window Rect, holes []Rect) {
	t.Helper()
	var clipped []Rect
	for _, h := range holes {
		if c := h.Intersect(window); !c.Empty() {
			clipped = append(clipped, c)
		}
	}
	wantArea := window.Area() - UnionArea(clipped)
	if window.Empty() {
		wantArea = 0
	}
	outside := append(slices.Clone(holes), outsideHoles(window, int64(len(holes)))...)
	prefix := []Rect{R(-7, -7, -6, -6)}
	for _, vertical := range []bool{false, true} {
		want := rowDifferenceOriented(window, holes, vertical)
		got := DifferenceOriented(window, holes, vertical)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("vertical=%v window %v holes %v:\n got %v\nwant %v", vertical, window, holes, got, want)
		}
		app := AppendDifferenceOriented(slices.Clone(prefix), window, holes, vertical)
		if !slices.Equal(app[:1], prefix) || !slices.Equal(app[1:], want) {
			t.Fatalf("vertical=%v: append form %v, want %v after the prefix", vertical, app, want)
		}
		if far := DifferenceOriented(window, outside, vertical); !slices.Equal(far, want) {
			t.Fatalf("vertical=%v: holes outside the window changed the result:\n got %v\nwant %v", vertical, far, want)
		}
		var area int64
		for i, f := range got {
			if f.Empty() || !window.ContainsRect(f) {
				t.Fatalf("vertical=%v: piece %v empty or outside window %v", vertical, f, window)
			}
			for _, h := range clipped {
				if f.Overlaps(h) {
					t.Fatalf("vertical=%v: piece %v overlaps hole %v", vertical, f, h)
				}
			}
			for _, g := range got[i+1:] {
				if f.Overlaps(g) {
					t.Fatalf("vertical=%v: pieces %v and %v overlap", vertical, f, g)
				}
			}
			area += f.Area()
		}
		if area != wantArea {
			t.Fatalf("vertical=%v: free area %d, want window minus holes = %d", vertical, area, wantArea)
		}
	}
	if got, want := AppendDifference(nil, window, holes), Difference(window, holes); !slices.Equal(got, want) {
		t.Fatalf("AppendDifference(nil) = %v, Difference = %v", got, want)
	}
}

// FuzzDifference checks the sweep against the per-row oracle: the same
// rects in the same order in both orientations, unaffected by holes that
// miss the window, disjoint, and covering exactly the window minus the
// holes.
func FuzzDifference(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 12; n++ {
		data := make([]byte, 4*(n+1))
		rng.Read(data)
		f.Add(data)
	}
	f.Add([]byte{0, 0, 20, 20, 0, 0, 20, 20})
	f.Add([]byte{0, 0, 20, 20, 5, 0, 3, 20, 0, 5, 20, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		window, holes := decodeDifference(data)
		checkDifference(t, window, holes)
	})
}

func TestDifferenceMatchesRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for it := 0; it < 300; it++ {
		data := make([]byte, 4*(1+rng.Intn(24)))
		rng.Read(data)
		window, holes := decodeDifference(data)
		checkDifference(t, window, holes)
	}
	checkDifference(t, Rect{}, []Rect{R(0, 0, 5, 5)})
}

func TestAppendDifferenceAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	w, holes := ingestLikeDifference()
	piece, neigh := candidateLikeDifference()
	var dst []Rect
	for _, vertical := range []bool{false, true} {
		dst = AppendDifferenceOriented(dst[:0], w, holes, vertical)
		dst = AppendDifferenceOriented(dst, piece, neigh, vertical)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, vertical := range []bool{false, true} {
			dst = AppendDifferenceOriented(dst[:0], w, holes, vertical)
			dst = AppendDifferenceOriented(dst, piece, neigh, vertical)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendDifferenceOriented with a warmed dst: %.1f allocs/op, want 0", allocs)
	}
}

// ingestLikeDifference is a window of ingest's fill-region extraction:
// 127 spacing-expanded wire clips with about 210 distinct y boundaries.
func ingestLikeDifference() (Rect, []Rect) {
	rng := rand.New(rand.NewSource(3))
	w := R(0, 0, 4000, 4000)
	holes := make([]Rect, 127)
	for i := range holes {
		x, y := rng.Int63n(3900), 5*rng.Int63n(780)
		holes[i] = R(x, y, x+40+rng.Int63n(1200), y+10*(2+rng.Int63n(6)))
	}
	return w, holes
}

// candidateLikeDifference is one free piece of candidate pass 2: 382
// neighbour rects spread over the window, about 36 of them touching the
// piece.
func candidateLikeDifference() (Rect, []Rect) {
	rng := rand.New(rand.NewSource(4))
	piece := R(1000, 1000, 1600, 1400)
	neigh := make([]Rect, 382)
	for i := range neigh {
		x, y := rng.Int63n(3950), rng.Int63n(3950)
		if i < 28 {
			x, y = 950+rng.Int63n(600), 950+rng.Int63n(400)
		}
		neigh[i] = R(x, y, x+20+rng.Int63n(80), y+20+rng.Int63n(80))
	}
	return piece, neigh
}

// candidateSpanningDifference is the traffic candidate pass 2 sends in a
// full-chip fill: a thin free piece crossed by neighbour wires, 34 holes of
// which 29 (85%) span the piece's whole sweep height.
func candidateSpanningDifference() (Rect, []Rect) {
	rng := rand.New(rand.NewSource(6))
	piece := R(1000, 1000, 1600, 1060)
	neigh := make([]Rect, 34)
	for i := range neigh {
		x := 1000 + rng.Int63n(580)
		if i < 29 {
			neigh[i] = R(x, 900+rng.Int63n(100), x+10+rng.Int63n(20), 1060+rng.Int63n(200))
			continue
		}
		y := 1000 + rng.Int63n(50)
		neigh[i] = R(x, y, x+10+rng.Int63n(40), y+5+rng.Int63n(30))
	}
	return piece, neigh
}

func BenchmarkDifference(b *testing.B) {
	for _, bc := range []struct {
		name  string
		shape func() (Rect, []Rect)
	}{
		{"ingest-127-holes", ingestLikeDifference},
		{"candidate-382-neighbours", candidateLikeDifference},
		{"candidate-spanning", candidateSpanningDifference},
	} {
		w, holes := bc.shape()
		for _, vertical := range []bool{false, true} {
			name := bc.name + "/horizontal"
			if vertical {
				name = bc.name + "/vertical"
			}
			b.Run(name, func(b *testing.B) {
				var dst []Rect
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dst = AppendDifferenceOriented(dst[:0], w, holes, vertical)
				}
			})
		}
	}
}
