package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"dummyfill/internal/faultinject"
	"dummyfill/internal/fill"
)

// Chaos configuration: seeds chosen so the eight payload variants cover
// every serving-layer fault class deterministically (decisions are pure
// in (seed, site, key)): variants 0-4 run clean, 5 hits an emit fault,
// 6 an ingest fault, 7 a serving-layer panic.
const (
	chaosServeSeed  = 1
	chaosServeRate  = 0.15
	chaosEngineSeed = 42
	chaosVariants   = 8
)

func chaosServeInjector() *faultinject.Injector {
	return faultinject.New(chaosServeSeed).
		WithRate(faultinject.SiteServeIngest, chaosServeRate).
		WithRate(faultinject.SiteServePanic, chaosServeRate).
		WithRate(faultinject.SiteServeEmit, chaosServeRate)
}

// chaosEngineInjector exercises the engine's own degradation paths under
// load: warm-solver failures, sizing panics, corrupted solutions. All
// window-keyed, so output stays deterministic and the offline reference
// (same seed, same rates) matches byte for byte.
func chaosEngineInjector() *faultinject.Injector {
	return faultinject.New(chaosEngineSeed).
		WithRate(faultinject.SiteWarmSolve, 0.3).
		WithRate(faultinject.SitePanic, 0.05).
		WithRate(faultinject.SiteCorrupt, 0.1)
}

func chaosPayload(variant int) []byte {
	return append([]byte(fmt.Sprintf("# chaos variant %d\n", variant)), tinyLayoutBytes()...)
}

func chaosJobKey(payload []byte) uint64 {
	sum := sha256.Sum256(payload)
	return binary.BigEndian.Uint64(sum[:8])
}

// chaosClass predicts how the server must handle a payload, mirroring
// the fault-site precedence in handleFill/runJob (ingest before panic
// before emit).
func chaosClass(in *faultinject.Injector, key uint64) string {
	switch {
	case in.Would(faultinject.SiteServeIngest, key):
		return "ingest"
	case in.Would(faultinject.SiteServePanic, key):
		return "panic"
	case in.Would(faultinject.SiteServeEmit, key):
		return "emit"
	}
	return "ok"
}

// TestChaosServingUnderFaults is the headline chaos run: 24 concurrent
// clients (valid, fault-injected, malformed, and mid-flight-cancelling)
// against a 1-slot/2-seat server with engine- and serving-layer faults
// active. It asserts the failure-first contract: load is shed with 429s,
// fault classes map to their status taxonomy deterministically, every
// 200 body is byte-identical to the offline reference, the server drains
// cleanly, and nothing leaks — goroutines or pooled buffers.
func TestChaosServingUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run; skipping in -short")
	}
	baseGoroutines := runtime.NumGoroutine()

	s := New(Config{Workers: 1, QueueDepth: 2, DefaultDeadline: 2 * time.Minute})
	s.cfg.Options.Inject = chaosEngineInjector()
	serveInj := chaosServeInjector()
	s.SetInjector(serveInj)
	ts := httptest.NewServer(s)

	// Expected per-variant class and, for clean variants, the reference
	// body (engine faults included — same seed, so same degradations).
	classes := make([]string, chaosVariants)
	refs := make([][]byte, chaosVariants)
	refOpts := fill.DefaultOptions()
	refOpts.Workers = 2
	refOpts.Inject = chaosEngineInjector()
	for v := 0; v < chaosVariants; v++ {
		p := chaosPayload(v)
		classes[v] = chaosClass(serveInj, chaosJobKey(p))
		if classes[v] == "ok" {
			refs[v] = offlineFill(t, p, refOpts, "text")
		}
	}
	for _, want := range []string{"ok", "ingest", "panic", "emit"} {
		found := false
		for _, c := range classes {
			found = found || c == want
		}
		if !found {
			t.Fatalf("chaos seed no longer covers class %q; re-probe seeds", want)
		}
	}

	type outcome struct {
		variant int
		kind    string // "status:<code>" or "transport"
		body    []byte
	}
	const clients = 24
	results := make(chan outcome, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			variant := i % chaosVariants
			payload := chaosPayload(variant)
			switch i % 6 {
			case 4: // malformed payload
				variant = -1
				payload = []byte("layout broken\nwire 1 2 3\n")
			case 5: // client gives up mid-flight
				variant = -2
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(5+i)*time.Millisecond)
				defer cancel()
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				ts.URL+"/fill?format=text&oformat=text&workers=2", bytes.NewReader(payload))
			if err != nil {
				t.Error(err)
				return
			}
			<-start
			resp, err := ts.Client().Do(req)
			if err != nil {
				results <- outcome{variant, "transport", nil}
				return
			}
			results <- outcome{variant, fmt.Sprintf("status:%d", resp.StatusCode), readBody(t, resp)}
		}(i)
	}
	close(start)
	wg.Wait()
	close(results)

	counts := map[string]int{}
	for out := range results {
		counts[out.kind]++
		switch out.kind {
		case "transport":
			if out.variant != -2 {
				t.Errorf("variant %d: unexpected transport error (only cancelled clients may)", out.variant)
			}
			continue
		case "status:200":
			if out.variant < 0 {
				t.Errorf("variant %d: malformed/cancelled client got 200", out.variant)
				continue
			}
			if classes[out.variant] != "ok" {
				t.Errorf("variant %d (class %s): got 200, want a fault", out.variant, classes[out.variant])
				continue
			}
			if !bytes.Equal(out.body, refs[out.variant]) {
				t.Errorf("variant %d: 200 body (%d bytes) differs from offline reference (%d bytes)",
					out.variant, len(out.body), len(refs[out.variant]))
			}
		case "status:400":
			if out.variant >= 0 && classes[out.variant] != "ingest" {
				t.Errorf("variant %d (class %s): unexpected 400: %s", out.variant, classes[out.variant], out.body)
			}
		case "status:500":
			if out.variant >= 0 && classes[out.variant] != "panic" && classes[out.variant] != "emit" {
				t.Errorf("variant %d (class %s): unexpected 500: %s", out.variant, classes[out.variant], out.body)
			}
		case "status:429", "status:503":
			// Load shed or deadline-exhausted — any client may draw these
			// under a saturated 1-slot server.
		default:
			t.Errorf("variant %d: unexpected outcome %s: %s", out.variant, out.kind, out.body)
		}
	}
	t.Logf("chaos outcomes: %v", counts)
	if counts["status:429"] == 0 {
		t.Error("no 429s: 24 clients against 1 slot + 2 seats must shed load")
	}

	// Clean drain: no in-flight jobs remain, then the server refuses work.
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Shutdown(dctx); err != nil {
		t.Fatalf("Shutdown after chaos: %v", err)
	}
	resp := postFill(t, ts, "", []byte("layout x\n"))
	if readBody(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503", resp.StatusCode)
	}
	ts.Close()

	if q, f := s.adm.queued.Load(), s.adm.inFlight.Load(); q != 0 || f != 0 {
		t.Errorf("admission counters leaked: queued=%d inFlight=%d", q, f)
	}
	gets, puts := s.PoolBalance()
	if gets == 0 || gets != puts {
		t.Errorf("pooled output buffers leaked: gets=%d puts=%d", gets, puts)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseGoroutines+3 })
}

// TestChaosDrainHardAbortsStragglers verifies the two-phase shutdown:
// Shutdown with an already-expired context must hard-abort in-flight
// jobs through their contexts, return promptly, and leave no leaks.
func TestChaosDrainHardAbortsStragglers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run; skipping in -short")
	}
	s := New(Config{Workers: 2, QueueDepth: 4, DefaultDeadline: time.Minute})
	ts := httptest.NewServer(s)

	const clients = 6
	var wg sync.WaitGroup
	codes := make(chan int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postFill(t, ts, "?format=text&oformat=text", chaosPayload(i))
			readBody(t, resp)
			codes <- resp.StatusCode
		}(i)
	}

	// Let jobs get in flight, then demand an instant drain.
	waitFor(t, func() bool { return s.adm.inFlight.Load() > 0 })
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(expired) }()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Shutdown(expired ctx) = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return: hard abort failed to unwind jobs")
	}

	wg.Wait()
	close(codes)
	for code := range codes {
		// Jobs that finished before the drain get 200; aborted ones 503;
		// late arrivals are rejected as draining (503) or shed (429).
		if code != http.StatusOK && code != http.StatusServiceUnavailable && code != http.StatusTooManyRequests {
			t.Errorf("straggler got status %d", code)
		}
	}
	ts.Close()
	if gets, puts := s.PoolBalance(); gets != puts {
		t.Errorf("pooled output buffers leaked across hard abort: gets=%d puts=%d", gets, puts)
	}
	if q, f := s.adm.queued.Load(), s.adm.inFlight.Load(); q != 0 || f != 0 {
		t.Errorf("admission counters leaked: queued=%d inFlight=%d", q, f)
	}
}

// TestChaosCancelledClientsReleaseSlots floods the server with clients
// that all abandon their requests mid-flight and asserts every slot,
// queue seat, and pooled buffer comes back.
func TestChaosCancelledClientsReleaseSlots(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run; skipping in -short")
	}
	s := New(Config{Workers: 1, QueueDepth: 4, DefaultDeadline: time.Minute})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(2+i*2)*time.Millisecond)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				ts.URL+"/fill?format=text&oformat=text", bytes.NewReader(chaosPayload(i%chaosVariants)))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := ts.Client().Do(req)
			if err == nil {
				readBody(t, resp)
			}
		}(i)
	}
	wg.Wait()

	waitFor(t, func() bool { return s.adm.queued.Load() == 0 && s.adm.inFlight.Load() == 0 })
	ts.Close() // wait for the handlers to return their buffers
	gets, puts := s.PoolBalance()
	if gets != puts {
		t.Errorf("pooled output buffers leaked under client cancellation: gets=%d puts=%d", gets, puts)
	}
}
