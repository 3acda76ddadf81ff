package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"dummyfill/internal/synth"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	return xs
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n      int
		ok     bool
		p, val float64
	}{
		{n: 1},
		{n: 10},
		{n: 19},
		{n: 20, ok: true, p: 50, val: 10},
		{n: 39, ok: true, p: 50, val: 20},
		{n: 40, ok: true, p: 75, val: 30},
		{n: 199, ok: true, p: 90, val: 180},
		{n: 200, ok: true, p: 95, val: 190},
		{n: 1000, ok: true, p: 99, val: 990},
		{n: 10000, ok: true, p: 99.9, val: 9990},
	}
	for _, c := range cases {
		p, v, ok := tail(seq(c.n))
		if ok != c.ok || p != c.p || v != c.val {
			t.Errorf("tail(1..%d) = p%v %v %v, want p%v %v %v", c.n, p, v, ok, c.p, c.val, c.ok)
		}
	}
	if got := median(seq(7)); got != 4 {
		t.Errorf("median(1..7) = %v, want 4", got)
	}
	if got, want := describe(seq(200)), "p50=100 p95=190 n=200"; got != want {
		t.Errorf("describe(1..200) = %q, want %q", got, want)
	}
	if got, want := describe(seq(5)), "p50=3 n=5"; got != want {
		t.Errorf("describe(1..5) = %q, want %q", got, want)
	}
}

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestMetricNames checks the metric lists against the naming rules and
// against BENCHMARK.json, which must describe exactly what the run
// prints.
func TestMetricNames(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q breaks [A-Za-z0-9_.-]+", d.name)
		}
		if !unit.MatchString(d.unit) {
			t.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the run prints %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, run prints %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" && m.Better != "lower" {
			t.Errorf("setup_s must be better lower")
		}
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, run prints %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the run has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the run", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
}

func TestInputsDeterministic(t *testing.T) {
	base, _, err := design(synth.DesignTiny())
	if err != nil {
		t.Fatal(err)
	}
	gen := func(seed int64) [][]byte {
		in, err := ecoInput(base, seed)
		if err != nil {
			t.Fatal(err)
		}
		chain, err := ecoChain(base, seed, 3)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := servePool(base, seed, 8)
		if err != nil {
			t.Fatal(err)
		}
		order, err := json.Marshal(requestOrder(seed, 50, len(pool)))
		if err != nil {
			t.Fatal(err)
		}
		return append(append([][]byte{in, order}, chain...), pool...)
	}
	a, b, c := gen(7), gen(7), gen(8)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("input %d differs between two runs with seed 7", i)
		}
	}
	if bytes.Equal(a[0], c[0]) {
		t.Errorf("seeds 7 and 8 gave the same fill-b input")
	}
	if !bytes.Equal(a[2], c[2]) {
		t.Errorf("the eco-b chain's base depends on the seed")
	}
}

// TestWorkloadsSmoke runs every workload's untraced and traced paths on
// inputs made from design tiny.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: time.Second, trace: trace,
				workdir: t.TempDir(), tmp: t.TempDir()}
			r, err := w.run(cfg, synth.DesignTiny())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			var out bytes.Buffer
			if err := r.write(&out, defs); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var line resultLine
			if err := json.Unmarshal(out.Bytes(), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted == 0 || line.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, line.Correct, line.Attempted, line.Failed)
			}
			if !trace {
				for _, d := range endToEnd {
					if line.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, d.name, line.Metrics[d.name].Value)
					}
				}
				continue
			}
			for _, m := range []string{"solver.calls", "fill.windows", "writer.bytes", "ingest.s"} {
				if line.Metrics[m].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, m, line.Metrics[m].Value)
				}
			}
			if name == "eco-b" && line.Metrics["cache.hit_share"].Value <= 0 {
				t.Errorf("eco-b: no fill-cache hits")
			}
			if _, err := os.Stat(cfg.tracePath()); err != nil {
				t.Errorf("%s: no trace file: %v", name, err)
			}
		}
	}
}
