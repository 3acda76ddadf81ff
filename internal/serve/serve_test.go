package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dummyfill/internal/fill"
	"dummyfill/internal/fillcache"
	"dummyfill/internal/ingest"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
	"dummyfill/internal/synth"
	"dummyfill/internal/textfmt"

	_ "dummyfill/internal/gdsii"
	_ "dummyfill/internal/oasis"
)

// tinyLayoutBytes returns the tiny synthetic design serialized in the
// text format — the standard upload payload for these tests.
var tinyLayoutBytes = sync.OnceValue(func() []byte {
	lay, err := synth.Generate(synth.DesignTiny())
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := textfmt.WriteLayout(&buf, lay); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// offlineFill computes the reference response body for a payload: the
// same ingest path and the same engine options the server uses, written
// through the same shape writer. 200 responses must match it byte for
// byte.
func offlineFill(t *testing.T, payload []byte, opts fill.Options, oformat string) []byte {
	t.Helper()
	f, err := layio.Lookup("text")
	if err != nil {
		t.Fatal(err)
	}
	lay, err := ingest.FromShapes(f.NewShapeReader(bytes.NewReader(payload), f.Limits), ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := fill.New(lay, opts)
	if err != nil {
		t.Fatal(err)
	}
	of, err := layio.Lookup(oformat)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw, err := of.NewShapeWriter(&buf, layio.Header{Name: lay.Name, Struct: "FILL"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunStream(context.Background(), fill.SinkFunc(func(_ int, fs []layout.Fill) error {
		for _, fl := range fs {
			if werr := sw.Write(layio.Shape{Layer: fl.Layer, Datatype: layio.DatatypeFill, Rect: fl.Rect}); werr != nil {
				return werr
			}
		}
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postFill(t *testing.T, ts *httptest.Server, query string, payload []byte) *http.Response {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/fill"+query, "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFillEndToEndByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("engine run; skipping in -short")
	}
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	payload := tinyLayoutBytes()
	for _, oformat := range []string{"text", "gds"} {
		resp := postFill(t, ts, "?format=text&oformat="+oformat+"&workers=2", payload)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("oformat=%s: status %d, body %s", oformat, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Fill-Status"); got != string(StatusOK) && got != string(StatusDegraded) {
			t.Fatalf("oformat=%s: X-Fill-Status = %q", oformat, got)
		}
		opts := fill.DefaultOptions()
		opts.Workers = 2
		want := offlineFill(t, payload, opts, oformat)
		if !bytes.Equal(body, want) {
			t.Fatalf("oformat=%s: response (%d bytes) differs from offline reference (%d bytes)",
				oformat, len(body), len(want))
		}
		if resp.Header.Get("X-Fill-Windows") == "" || resp.Header.Get("X-Fill-Fills") == "" {
			t.Fatalf("oformat=%s: missing X-Fill-Windows/X-Fill-Fills headers", oformat)
		}
	}

	// Same payload again: served from the layout cache.
	resp := postFill(t, ts, "?format=text&oformat=text&workers=2", payload)
	readBody(t, resp)
	if got := resp.Header.Get("X-Fill-Cache"); got != "hit" {
		t.Fatalf("repeat submission: X-Fill-Cache = %q, want hit", got)
	}

	// A client can read a whole Content-Length body before the handler
	// returns its buffer; Close waits for every handler to finish.
	ts.Close()
	gets, puts := s.PoolBalance()
	if gets == 0 || gets != puts {
		t.Fatalf("pooled buffers leaked: gets=%d puts=%d", gets, puts)
	}
}

func TestFillRejectsBadRequests(t *testing.T) {
	s := New(Config{MaxBodyBytes: 1 << 20})
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		name, query string
		payload     []byte
		wantCode    int
	}{
		{"zero deadline", "?deadline=0s", []byte("layout x\n"), http.StatusBadRequest},
		{"negative deadline", "?deadline=-5s", []byte("layout x\n"), http.StatusBadRequest},
		{"bad lambda", "?lambda=0.5", []byte("layout x\n"), http.StatusBadRequest},
		{"bad workers", "?workers=-1", []byte("layout x\n"), http.StatusBadRequest},
		{"unknown format", "?format=dxf", []byte("layout x\n"), http.StatusBadRequest},
		{"unknown oformat", "?oformat=dxf", []byte("layout x\n"), http.StatusBadRequest},
		{"malformed payload", "?format=text", []byte("layout x\nwire 1 2 3\n"), http.StatusBadRequest},
		{"undetectable payload", "", []byte{0x00, 0x01, 0x02, 0x03}, http.StatusBadRequest},
		{"oversized body", "", bytes.Repeat([]byte("x"), 2<<20), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp := postFill(t, ts, tc.query, tc.payload)
		body := readBody(t, resp)
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, resp.StatusCode, tc.wantCode, body)
		}
		if !bytes.Contains(body, []byte(`"rejected"`)) {
			t.Errorf("%s: body lacks rejected status: %s", tc.name, body)
		}
	}
	ts.Close() // wait for the handlers to return their buffers
	if gets, puts := s.PoolBalance(); gets != puts {
		t.Fatalf("pooled buffers leaked on reject paths: gets=%d puts=%d", gets, puts)
	}
}

func TestFillShedsLoadWhenQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Occupy the only run slot and the only queue seat directly.
	if _, err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	qctx, qcancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := s.adm.acquire(qctx)
		queued <- err
	}()
	waitFor(t, func() bool { return s.adm.queued.Load() == 1 })

	resp := postFill(t, ts, "", []byte("layout x\n"))
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	qcancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued waiter: err = %v, want context.Canceled", err)
	}
	s.adm.release(time.Millisecond)
}

func TestFillDeadlineExhaustedWhileQueued(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	if _, err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.adm.release(time.Millisecond)

	resp := postFill(t, ts, "?deadline=30ms", []byte("layout x\n"))
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("queued")) {
		t.Fatalf("body should name the queue wait: %s", body)
	}
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with no jobs: %v", err)
	}
	if !s.Draining() {
		t.Fatal("Draining() = false after Shutdown")
	}
	resp := postFill(t, ts, "", []byte("layout x\n"))
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 draining response missing Retry-After")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("engine run; skipping in -short")
	}
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	readBody(t, postFill(t, ts, "?format=text&oformat=text", tinyLayoutBytes()))
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readBody(t, resp))
	for _, series := range []string{
		`fillserved_jobs_total{status="ok"}`,
		`fillserved_jobs_total{status="rejected"}`,
		"fillserved_queue_depth",
		"fillserved_jobs_running",
		`fillserved_windows_total{kind="sized"}`,
		`fillserved_cache_total{event="miss"}`,
		`fillserved_job_seconds_bucket{le="+Inf"}`,
		"fillserved_job_seconds_count",
		"fillserved_queue_wait_seconds_sum",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing series %s", series)
		}
	}
	if t.Failed() {
		t.Logf("metrics payload:\n%s", text)
	}
}

func TestHealthzAndStats(t *testing.T) {
	s := New(Config{Workers: 3})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("/healthz: status %d body %s", resp.StatusCode, body)
	}
	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); !bytes.Contains(body, []byte(`"workers":3`)) {
		t.Fatalf("/stats: body %s", body)
	}
}

func TestAdmissionQueueBoundsAndRetryAfter(t *testing.T) {
	a := newAdmission(2, 1)
	ctx := context.Background()
	if _, err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// Slots full; one queue seat. Fill it with a blocked waiter.
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	got := make(chan error, 1)
	go func() { _, err := a.acquire(wctx); got <- err }()
	waitFor(t, func() bool { return a.queued.Load() == 1 })
	if _, err := a.acquire(ctx); !errors.Is(err, errQueueFull) {
		t.Fatalf("over-capacity acquire: err = %v, want errQueueFull", err)
	}

	// Freeing a slot admits the waiter.
	a.release(40 * time.Millisecond)
	if err := <-got; err != nil {
		t.Fatalf("queued waiter after release: %v", err)
	}

	if ra := a.retryAfter(); ra < time.Second || ra > 5*time.Minute {
		t.Fatalf("retryAfter = %v, want clamped to [1s, 5m]", ra)
	}
	a.release(40 * time.Millisecond)
	a.release(40 * time.Millisecond)
	if q, f := a.queued.Load(), a.inFlight.Load(); q != 0 || f != 0 {
		t.Fatalf("counters not restored: queued=%d inFlight=%d", q, f)
	}
}

func TestAdmissionFastPathBypassesQueueBound(t *testing.T) {
	// With free slots, acquire must succeed without counting against the
	// queue bound: a burst larger than maxQueue is never shed while
	// workers sit idle. The zero-depth queue makes that deterministic —
	// any acquire that touches the queue bound fails immediately.
	a := newAdmission(2, 0)
	for i := 0; i < 2; i++ {
		if _, err := a.acquire(context.Background()); err != nil {
			t.Fatalf("acquire %d with free slots: %v", i, err)
		}
		if q := a.queued.Load(); q != 0 {
			t.Fatalf("fast-path acquire counted against queue: queued=%d", q)
		}
	}
	// Slots exhausted: now the queue bound applies.
	if _, err := a.acquire(context.Background()); !errors.Is(err, errQueueFull) {
		t.Fatalf("over-capacity acquire: err = %v, want errQueueFull", err)
	}
	a.release(time.Millisecond)
	a.release(time.Millisecond)
	if q, f := a.queued.Load(), a.inFlight.Load(); q != 0 || f != 0 {
		t.Fatalf("counters not restored: queued=%d inFlight=%d", q, f)
	}
}

func TestLayoutCacheSingleFlight(t *testing.T) {
	c := newLayoutCache(4)
	var parses int32
	block := make(chan struct{})
	parse := func() (*layout.Layout, error) {
		<-block
		parses++
		return &layout.Layout{Name: "x"}, nil
	}
	// parses is written only by the single flight leader while the rest
	// wait on ready, so unsynchronized increments are race-safe here iff
	// single-flight works — the race detector is the assertion.
	const waiters = 8
	var wg sync.WaitGroup
	hits := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lay, hit, err := c.get("k", parse)
			if err != nil || lay == nil {
				t.Errorf("get: lay=%v err=%v", lay, err)
			}
			hits[i] = hit
		}(i)
	}
	waitFor(t, func() bool { return c.len() == 1 })
	close(block)
	wg.Wait()
	if parses != 1 {
		t.Fatalf("parse ran %d times, want 1 (single-flight)", parses)
	}
	misses := 0
	for _, h := range hits {
		if !h {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d callers reported a miss, want exactly the flight leader", misses)
	}

	// A later get is a pure hit.
	if _, hit, _ := c.get("k", parse); !hit {
		t.Fatal("warm get: hit = false")
	}

	// Failed parses are not cached; the next get retries.
	fails := 0
	failParse := func() (*layout.Layout, error) { fails++; return nil, fmt.Errorf("nope") }
	if _, _, err := c.get("bad", failParse); err == nil {
		t.Fatal("failed parse: err = nil")
	}
	if _, _, err := c.get("bad", failParse); err == nil || fails != 2 {
		t.Fatalf("failed parse not retried: err=%v fails=%d", err, fails)
	}

	// LRU eviction holds the cap.
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		okParse := func() (*layout.Layout, error) { return &layout.Layout{Name: k}, nil }
		if _, _, err := c.get(k, okParse); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.len(); n != 4 {
		t.Fatalf("cache len = %d, want cap 4", n)
	}
}

func TestLayoutCacheFailedLeaderEvictedMidParse(t *testing.T) {
	// A parse leader whose in-flight entry is LRU-evicted (and replaced by
	// a fresh flight for the same key) must not tear down the replacement
	// when it fails.
	c := newLayoutCache(1)
	block := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := c.get("k", func() (*layout.Layout, error) {
			<-block
			return nil, fmt.Errorf("boom")
		})
		done <- err
	}()
	waitFor(t, func() bool { return c.len() == 1 })
	// Completing another key evicts "k"'s in-flight entry (cap 1) …
	if _, _, err := c.get("other", func() (*layout.Layout, error) { return &layout.Layout{Name: "o"}, nil }); err != nil {
		t.Fatal(err)
	}
	// … and a new flight for "k" caches a replacement.
	if _, _, err := c.get("k", func() (*layout.Layout, error) { return &layout.Layout{Name: "k2"}, nil }); err != nil {
		t.Fatal(err)
	}
	close(block)
	if err := <-done; err == nil {
		t.Fatal("evicted leader: err = nil, want parse failure")
	}
	lay, hit, err := c.get("k", func() (*layout.Layout, error) {
		return nil, fmt.Errorf("replacement entry was torn down")
	})
	if err != nil || !hit || lay == nil || lay.Name != "k2" {
		t.Fatalf("get after failed leader: lay=%v hit=%v err=%v, want cached replacement", lay, hit, err)
	}
	if n := c.len(); n != 1 {
		t.Fatalf("cache len = %d, want 1", n)
	}
}

func TestMetricsConcurrentScrapeAndInsert(t *testing.T) {
	// Scrapes must never read the series maps concurrently with a
	// first-use insert in counter()/hist() — the race detector is the
	// assertion.
	const inserts = 2000
	m := newMetrics()
	var done atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Fresh series keys every iteration so map inserts keep happening
		// for the whole scrape loop, not just a warm-up burst.
		for i := 0; i < inserts; i++ {
			m.add("churn_total", fmt.Sprintf(`i="%d"`, i), 1)
			m.hist(fmt.Sprintf("churn_%d_seconds", i), defaultSecondsBuckets).observe(0.01)
			done.Add(1)
		}
	}()
	// Scrape until the inserter has finished, so scrapes provably overlap
	// the whole insert stream.
	for done.Load() < inserts {
		m.write(io.Discard)
	}
	wg.Wait()
}

func TestMetricsExposition(t *testing.T) {
	m := newMetrics()
	m.add("x_total", `status="ok"`, 3)
	m.gauge("x_depth", func() float64 { return 2.5 })
	h := m.hist("x_seconds", []float64{0.1, 1})
	h.observe(0.05)
	h.observe(0.5)
	h.observe(10)
	var buf bytes.Buffer
	m.write(&buf)
	out := buf.String()
	for _, line := range []string{
		`x_total{status="ok"} 3`,
		"x_depth 2.5",
		`x_seconds_bucket{le="0.1"} 1`,
		`x_seconds_bucket{le="1"} 2`,
		`x_seconds_bucket{le="+Inf"} 3`,
		"x_seconds_count 3",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}

// TestFillWindowCacheTier exercises the second caching tier: the layout
// LRU short-circuits byte-identical payloads, while the fill cache
// accelerates *edited* ones — an ECO resubmission replays every
// unchanged window and the response stays byte-identical to an offline
// uncached run on the same layout.
func TestFillWindowCacheTier(t *testing.T) {
	if testing.Short() {
		t.Skip("engine runs; skipping in -short")
	}
	fc, err := fillcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Disable the layout LRU so resubmissions demonstrably flow through
	// the engine and hit the window tier instead.
	s := New(Config{CacheEntries: -1, FillCache: fc})
	ts := httptest.NewServer(s)
	defer ts.Close()

	parseWC := func(resp *http.Response) (hits, misses int) {
		t.Helper()
		wc := resp.Header.Get("X-Fill-Window-Cache")
		if _, err := fmt.Sscanf(wc, "hits=%d misses=%d", &hits, &misses); err != nil {
			t.Fatalf("X-Fill-Window-Cache = %q: %v", wc, err)
		}
		return
	}

	payload := tinyLayoutBytes()
	resp := postFill(t, ts, "?format=text&oformat=text&workers=2", payload)
	cold := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold: status %d, body %s", resp.StatusCode, cold)
	}
	hits, misses := parseWC(resp)
	if hits != 0 || misses == 0 {
		t.Fatalf("cold run: hits=%d misses=%d", hits, misses)
	}

	// Identical resubmission (layout LRU off): every window replays.
	resp = postFill(t, ts, "?format=text&oformat=text&workers=2", payload)
	warm := readBody(t, resp)
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm response differs from cold")
	}
	hits, misses = parseWC(resp)
	if misses != 0 || hits == 0 {
		t.Fatalf("warm run: hits=%d misses=%d", hits, misses)
	}

	// ECO resubmission: an edited layout still replays its unchanged
	// windows, and the body matches an offline run without any cache.
	lay, err := synth.Generate(synth.DesignTiny())
	if err != nil {
		t.Fatal(err)
	}
	eco, _, err := synth.PerturbECO(lay, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := textfmt.WriteLayout(&buf, eco); err != nil {
		t.Fatal(err)
	}
	resp = postFill(t, ts, "?format=text&oformat=text&workers=2", buf.Bytes())
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eco: status %d, body %s", resp.StatusCode, body)
	}
	hits, misses = parseWC(resp)
	if hits == 0 || misses == 0 {
		t.Fatalf("eco run should mix replays and recomputes: hits=%d misses=%d", hits, misses)
	}
	opts := fill.DefaultOptions()
	opts.Workers = 2
	if want := offlineFill(t, buf.Bytes(), opts, "text"); !bytes.Equal(body, want) {
		t.Fatal("eco response differs from offline uncached reference")
	}

	// The tier shows up on /metrics.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met := string(readBody(t, mresp))
	if !strings.Contains(met, `fillserved_fill_cache_windows_total{result="hit"}`) {
		t.Fatalf("metrics missing fill cache series:\n%s", met)
	}
}
