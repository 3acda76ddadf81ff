package dummyfill_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildTool compiles one cmd/ binary into a shared temp dir (built once
// per test binary).
func buildTool(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = t.TempDir()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// TestCommandPipeline drives the real binaries end to end:
// layoutgen → fillgen → evalscore → gdscat on the tiny design, plus the
// layout2svg geometry and heat-map renderings.
func TestCommandPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	layoutgen := buildTool(t, "layoutgen")
	fillgen := buildTool(t, "fillgen")
	evalscore := buildTool(t, "evalscore")
	gdscat := buildTool(t, "gdscat")
	layout2svg := buildTool(t, "layout2svg")

	gds := filepath.Join(dir, "tiny.gds")
	out := run(t, layoutgen, "-design", "tiny", "-stats", "-o", gds)
	if !strings.Contains(out, "design tiny") || !strings.Contains(out, "wrote") {
		t.Fatalf("layoutgen output: %s", out)
	}

	fillGds := filepath.Join(dir, "tiny_fill.gds")
	out = run(t, fillgen, "-design", "tiny", "-o", fillGds)
	if !strings.Contains(out, "method ours") {
		t.Fatalf("fillgen output: %s", out)
	}
	if strings.Contains(out, "WARNING") {
		t.Fatalf("fillgen reported DRC trouble: %s", out)
	}

	out = run(t, evalscore, "-design", "tiny", "-solution", fillGds)
	if !strings.Contains(out, "DRC: clean") {
		t.Fatalf("evalscore output: %s", out)
	}
	if !strings.Contains(out, "quality=") {
		t.Fatalf("evalscore missing scores: %s", out)
	}

	out = run(t, gdscat, "-layers", fillGds)
	if !strings.Contains(out, "fill:") {
		t.Fatalf("gdscat output: %s", out)
	}

	// fillgen -in path: feed the generated wires file back in.
	out = run(t, fillgen, "-in", gds, "-o", filepath.Join(dir, "ext_fill.gds"))
	if !strings.Contains(out, "method ours") {
		t.Fatalf("fillgen -in output: %s", out)
	}

	for name, args := range map[string][]string{
		"fill.svg": {"-design", "tiny", "-fill"},
		"heat.svg": {"-design", "tiny", "-heat", "-layer", "0"},
	} {
		svg := filepath.Join(dir, name)
		run(t, layout2svg, append(args, "-o", svg)...)
		body, err := os.ReadFile(svg)
		if err != nil {
			t.Fatal(err)
		}
		doc := strings.TrimSpace(string(body))
		if !strings.HasPrefix(doc, "<svg") || !strings.HasSuffix(doc, "</svg>") {
			t.Fatalf("layout2svg %v: not an SVG document (%d bytes)", args, len(body))
		}
	}
}

// TestFillservedSmoke drives the serving daemon the way an operator
// would: start it, submit a layout over HTTP, check the response is
// byte-identical to the offline `fillgen -stream` output for the same
// input, scrape /metrics, and shut down cleanly with SIGTERM.
func TestFillservedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	layoutgen := buildTool(t, "layoutgen")
	fillgen := buildTool(t, "fillgen")
	fillserved := buildTool(t, "fillserved")

	gds := filepath.Join(dir, "tiny.gds")
	run(t, layoutgen, "-design", "tiny", "-o", gds)
	refGds := filepath.Join(dir, "ref_fill.gds")
	run(t, fillgen, "-in", gds, "-stream", "-workers", "2", "-o", refGds)
	ref, err := os.ReadFile(refGds)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := os.ReadFile(gds)
	if err != nil {
		t.Fatal(err)
	}

	// Reserve a port, then hand it to the daemon.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	cmd := exec.Command(fillserved, "-addr", addr, "-drain", "10s")
	var logs bytes.Buffer
	cmd.Stdout = &logs
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	base := "http://" + addr
	waitUp := func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	deadline := time.Now().Add(10 * time.Second)
	for !waitUp() {
		if time.Now().After(deadline) {
			t.Fatalf("fillserved never came up; logs:\n%s", logs.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	post := func() *http.Response {
		t.Helper()
		resp, err := http.Post(base+"/fill?format=gds&oformat=gds&workers=2", "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatalf("POST /fill: %v; logs:\n%s", err, logs.String())
		}
		return resp
	}
	resp := post()
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /fill: status %d, body %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, ref) {
		t.Fatalf("served response (%d bytes) differs from offline fillgen -stream output (%d bytes)",
			len(body), len(ref))
	}

	// Same payload again: the layout cache answers.
	resp = post()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Fill-Cache"); got != "hit" {
		t.Fatalf("repeat submission: X-Fill-Cache = %q, want hit", got)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), `fillserved_jobs_total{status="ok"} 2`) {
		t.Fatalf("/metrics missing job counts:\n%s", mbody)
	}

	// SIGTERM: the daemon must drain and exit zero.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("fillserved exit: %v; logs:\n%s", err, logs.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("fillserved did not exit after SIGTERM; logs:\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "drained cleanly") {
		t.Fatalf("missing clean-drain log line; logs:\n%s", logs.String())
	}
}

// TestFillgenCacheCommand drives the incremental re-fill surface the
// way an ECO loop would: a cold cached run, a warm run that must replay
// every window and emit identical bytes, and a -diff self-compare that
// must report zero invalidated windows.
func TestFillgenCacheCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	layoutgen := buildTool(t, "layoutgen")
	fillgen := buildTool(t, "fillgen")

	gds := filepath.Join(dir, "tiny.gds")
	run(t, layoutgen, "-design", "tiny", "-o", gds)
	cacheDir := filepath.Join(dir, "cache")

	coldGds := filepath.Join(dir, "cold.gds")
	out := run(t, fillgen, "-in", gds, "-stream", "-cache", cacheDir, "-o", coldGds)
	if !strings.Contains(out, "cache: hits=0") {
		t.Fatalf("cold run should start from an empty cache: %s", out)
	}

	warmGds := filepath.Join(dir, "warm.gds")
	out = run(t, fillgen, "-in", gds, "-stream", "-cache", cacheDir, "-o", warmGds)
	if !strings.Contains(out, "misses=0") || strings.Contains(out, "cache: hits=0") {
		t.Fatalf("warm run should replay every window: %s", out)
	}
	cold, err := os.ReadFile(coldGds)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := os.ReadFile(warmGds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm cached output (%d bytes) differs from cold (%d bytes)", len(warm), len(cold))
	}

	out = run(t, fillgen, "-in", gds, "-diff", gds)
	if !strings.Contains(out, "0 invalidated") {
		t.Fatalf("-diff against the same layout should invalidate nothing: %s", out)
	}
}

// TestReproFig6Command checks the repro tool's figure path.
func TestReproFig6Command(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	repro := buildTool(t, "repro")
	out := run(t, repro, "-exp", "fig6")
	if !strings.Contains(out, "[5 0 0 6]") {
		t.Fatalf("fig6 output wrong: %s", out)
	}
}

// TestReproTable3Command checks the repro tool's Table 3 path: one row
// per method, then the engine's health line.
func TestReproTable3Command(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	repro := buildTool(t, "repro")
	out := run(t, repro, "-exp", "table3", "-designs", "tiny")
	var methods []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "tiny" {
			methods = append(methods, f[1])
		}
	}
	want := []string{"ours", "tile-lp", "montecarlo", "coupling-ilp", "greedy"}
	if strings.Join(methods, ",") != strings.Join(want, ",") {
		t.Fatalf("table3 method rows = %v, want %v:\n%s", methods, want, out)
	}
	if !strings.Contains(out, "health[tiny/ours]: ") {
		t.Fatalf("table3 output has no engine health line:\n%s", out)
	}
}

// TestFilllintCommand drives the analysis gate the way CI does: the
// repo's own tree must be clean under every analyzer, -list must name
// them all, and -json must emit a parseable (empty) findings array.
func TestFilllintCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and type-checks the module; skipped in -short mode")
	}
	lint := buildTool(t, "filllint")
	root := repoRoot(t)

	// Findings go to stdout; the stats accounting line goes to stderr.
	runAt := func(args ...string) (stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(lint, args...)
		cmd.Dir = root
		var out, errb strings.Builder
		cmd.Stdout = &out
		cmd.Stderr = &errb
		if err := cmd.Run(); err != nil {
			t.Fatalf("filllint %v: %v\n%s%s", args, err, out.String(), errb.String())
		}
		return out.String(), errb.String()
	}

	out, _ := runAt("-list")
	for _, name := range []string{"nodeterm", "ctxflow", "poolpair", "geomcast", "nopanic",
		"lockguard", "goleak", "errsink", "chanbound"} {
		if !strings.Contains(out, name) {
			t.Fatalf("filllint -list missing %s:\n%s", name, out)
		}
	}

	out, stats := runAt("./...")
	if strings.TrimSpace(out) != "" {
		t.Fatalf("filllint found violations in the tree:\n%s", out)
	}
	if !strings.Contains(stats, "findings=0") {
		t.Fatalf("filllint stats line missing:\n%s", stats)
	}

	out, _ = runAt("-json", "-analyzers", "nodeterm,nopanic", "./internal/mcf", "./internal/lps/...")
	var findings []map[string]any
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("filllint -json output not JSON: %v\n%s", err, out)
	}
	if len(findings) != 0 {
		t.Fatalf("unexpected findings: %v", findings)
	}
}

// TestLayout2SVGCommand checks the renderer tool.
func TestLayout2SVGCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	tool := buildTool(t, "layout2svg")
	dir := t.TempDir()
	svg := filepath.Join(dir, "t.svg")
	run(t, tool, "-design", "tiny", "-o", svg)
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Fatalf("not an SVG: %.60s", data)
	}
}
