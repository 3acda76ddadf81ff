package exp

import (
	"bytes"
	"strings"
	"testing"

	"dummyfill/internal/cmppad"
	"dummyfill/internal/fill"
)

func TestTable2Tiny(t *testing.T) {
	rows, err := Table2([]string{"tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Design != "tiny" || r.Shapes != 2400 || r.Layers != 3 || r.FileSizeB <= 0 {
		t.Fatalf("row %+v", r)
	}
	if r.Coeffs.BetaVar <= 0 {
		t.Fatalf("uncalibrated: %+v", r.Coeffs)
	}
	if _, err := Table2([]string{"bogus"}); err == nil {
		t.Fatal("bad design must error")
	}
}

func TestTable3TinyOursWins(t *testing.T) {
	rows, err := Table3([]string{"tiny"}, fill.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // ours + 4 baselines
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	var oursQ float64
	for _, r := range rows {
		if r.Method == "ours" {
			oursQ = r.Report.Quality
		}
	}
	for _, r := range rows {
		if r.Method != "ours" && r.Report.Quality >= oursQ {
			t.Fatalf("%s quality %.3f >= ours %.3f", r.Method, r.Report.Quality, oursQ)
		}
	}
}

func TestFig6Exact(t *testing.T) {
	rows, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Objective != 29 {
			t.Fatalf("%s objective = %d", r.Solver, r.Objective)
		}
		want := []int64{5, 0, 0, 6}
		for i := range want {
			if r.X[i] != want[i] {
				t.Fatalf("%s x = %v", r.Solver, r.X)
			}
		}
	}
}

func TestCMPTinyImproves(t *testing.T) {
	rows, err := CMP([]string{"tiny"}, fill.DefaultOptions(), cmppad.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 layers", len(rows))
	}
	for _, r := range rows {
		if r.Improvement <= 1 {
			t.Fatalf("layer %d improvement %.2f <= 1", r.Layer, r.Improvement)
		}
	}
}

func TestRenderFormats(t *testing.T) {
	rows, err := Table2([]string{"tiny"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format{Text, CSV, Markdown} {
		var buf bytes.Buffer
		if err := RenderTable2(&buf, f, rows); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.Contains(out, "tiny") {
			t.Fatalf("format %s missing data: %s", f, out)
		}
		lines := strings.Count(out, "\n")
		switch f {
		case CSV:
			if lines != 2 {
				t.Fatalf("csv lines = %d", lines)
			}
			if !strings.HasPrefix(out, "design,shapes") {
				t.Fatalf("csv header wrong: %s", out)
			}
		case Markdown:
			if lines != 3 || !strings.HasPrefix(out, "| design |") {
				t.Fatalf("markdown shape wrong: %s", out)
			}
		}
	}
}

func TestRenderCSVQuoting(t *testing.T) {
	var buf bytes.Buffer
	err := table(&buf, CSV, []string{"a", "b"}, [][]string{{`x,y`, `he said "hi"`}})
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n"
	if buf.String() != want {
		t.Fatalf("csv quoting: %q", buf.String())
	}
}

func TestParseFormat(t *testing.T) {
	for _, ok := range []string{"text", "csv", "md"} {
		if _, err := ParseFormat(ok); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Fatal("unknown format must error")
	}
}

func TestRenderFig6AndCMP(t *testing.T) {
	f6, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderFig6(&buf, Text, f6); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "[5 0 0 6]") {
		t.Fatalf("fig6 render: %s", buf.String())
	}
	buf.Reset()
	if err := RenderCMP(&buf, CSV, []CMPRow{{Design: "d", Layer: 0, RangeBefore: 2, RangeAfter: 1, Improvement: 2}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2.0x") {
		t.Fatalf("cmp render: %s", buf.String())
	}
}
