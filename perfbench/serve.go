package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	dummyfill "dummyfill"
	"dummyfill/internal/layout"
	"dummyfill/internal/serve"
	"dummyfill/internal/synth"
)

const (
	// serveRate is the open loop's fixed request rate, per second: about
	// half the service's closed-loop capacity on tiny with two cores, so
	// requests overlap and queueing shows in the tail without a growing
	// backlog.
	serveRate = 15
	// servePoolSize exceeds the server's 64-entry layout cache, so the
	// run sees both layout-cache hits and parses.
	servePoolSize = 96
	// serveConns caps the client's connections to the server.
	serveConns = 2
)

// server is an in-process fill service on a loopback listener.
type server struct {
	srv      *serve.Server
	hs       *http.Server
	url      string
	serving  sync.WaitGroup
	serveErr error // from http.Server.Serve; read after serving.Wait
}

func startServer(cfg serve.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.New(cfg), url: "http://" + ln.Addr().String()}
	s.hs = &http.Server{Handler: s.srv}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		s.serveErr = s.hs.Serve(ln)
	}()
	return s, nil
}

// stop shuts the listener and the service down and waits for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	s.serving.Wait()
	if !errors.Is(s.serveErr, http.ErrServerClosed) && err == nil {
		err = s.serveErr
	}
	return err
}

// reply is one request's outcome.
type reply struct {
	entry           int
	due, sent, done time.Time
	status          int
	sum             [32]byte
	health          string // X-Fill-Health
	healthy         bool   // X-Fill-Status is ok
	cacheHit        bool   // the layout came from the layout cache
	body            []byte // only from warm
	err             error
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}}
}

// warm posts every pool entry to url once, one after another, so that a
// measured phase starts from the layout cache's steady state. Its replies
// carry their bodies: they are the outputs later replies must equal.
func warm(url string, pool [][]byte) []reply {
	client := newClient()
	defer client.CloseIdleConnections()
	out := make([]reply, len(pool))
	for k, p := range pool {
		out[k] = send(client, url, p, time.Now())
		out[k].entry = k
	}
	return out
}

// openLoop posts pool[order[i]] to url at start+i/serveRate whether or
// not earlier requests have finished, over at most serveConns
// connections, and returns every reply without its body. A request
// waiting for a free connection is late by that wait; its time counts
// from when it was due.
func openLoop(url string, pool [][]byte, order []int) []reply {
	client := newClient()
	defer client.CloseIdleConnections()
	out := make([]reply, len(order))
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for i, k := range order {
		due := start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i, k int, due time.Time) {
			defer wg.Done()
			rp := send(client, url, pool[k], due)
			rp.entry, rp.body = k, nil
			out[i] = rp
		}(i, k, due)
	}
	wg.Wait()
	return out
}

func send(client *http.Client, url string, payload []byte, due time.Time) reply {
	rp := reply{due: due, sent: time.Now()}
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		rp.err, rp.done = err, time.Now()
		return rp
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rp.done = time.Now()
	rp.status = resp.StatusCode
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err != nil {
		rp.err = err
		return rp
	}
	rp.body, rp.sum = body, sha256.Sum256(body)
	rp.health = resp.Header.Get("X-Fill-Health")
	rp.healthy = resp.Header.Get("X-Fill-Status") == string(serve.StatusOK)
	rp.cacheHit = resp.Header.Get("X-Fill-Cache") == "hit"
	return rp
}

// healthField reads one key=value field of an X-Fill-Health line.
func healthField(h, key string) (string, bool) {
	for _, f := range strings.Fields(h) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v, true
		}
	}
	return "", false
}

// scrape reads the service's /metrics exposition into a map keyed by the
// series name with its labels.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

// servePhase is one open-loop pass against a server.
type servePhase struct {
	replies       []reply
	cpu           time.Duration
	before, after map[string]float64
	rt0, rt1      rtSample
}

// runServePhase drives s through one open loop posting to url, then
// stops s.
func runServePhase(s *server, url string, pool [][]byte, order []int) (*servePhase, error) {
	ph := &servePhase{}
	var err error
	ph.before, err = scrape(s.url)
	if err == nil {
		ph.rt0 = readRuntime()
		c0 := cpuTime()
		ph.replies = openLoop(url, pool, order)
		ph.cpu = cpuTime() - c0
		ph.rt1 = readRuntime()
		ph.after, err = scrape(s.url)
	}
	if serr := s.stop(); err == nil {
		err = serr
	}
	return ph, err
}

// latencies returns each reply's time from when it was due. A failed
// request counts as missing every latency limit: it is booked at the
// phase's whole length.
func (ph *servePhase) latencies() []float64 {
	if len(ph.replies) == 0 {
		return nil
	}
	span := ph.replies[len(ph.replies)-1].done.Sub(ph.replies[0].due)
	out := make([]float64, len(ph.replies))
	for i, rp := range ph.replies {
		d := rp.done.Sub(rp.due)
		if rp.err != nil {
			d = max(d, span)
		}
		out[i] = d.Seconds()
	}
	return out
}

// serveTiny is the serve-tiny workload: an open loop at serveRate
// against an in-process fill service, with payloads drawn from a pool of
// distinct ECO variants of design sp (tiny).
func serveTiny(cfg config, sp synth.Spec) (*report, error) {
	var (
		base   *layout.Layout
		coeffs dummyfill.Coefficients
		pool   [][]byte
		srv    *server
	)
	setup, err := timeSetup(cfg.setupReps(3), func() error {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		var err error
		if base, coeffs, err = design(sp); err != nil {
			return err
		}
		if pool, err = servePool(base, cfg.seed, servePoolSize); err != nil {
			return err
		}
		srv, err = startServer(serve.Config{Rules: base.Rules})
		return err
	})
	if err != nil {
		return nil, err
	}
	// GDSII does not carry the density window; requests name it.
	fillURL := func(s *server) string {
		return s.url + "/fill?format=gds&window=" + strconv.FormatInt(base.Window, 10)
	}
	// Warming the layout cache sends every entry once; those replies get
	// the full check and every later reply must equal its entry's.
	chk := newChecker(coeffs)
	iopt := ingestOptions(base)
	for _, rp := range warm(fillURL(srv), pool) {
		if rp.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: warming entry %d: %v\n", rp.entry, rp.err)
			continue // later replies for the entry fail as unchecked
		}
		lay, err := dummyfill.ReadLayoutFormat(bytes.NewReader(pool[rp.entry]), "gds", iopt)
		if err != nil {
			return nil, err
		}
		// The verdict is also kept: tally fails every reply for the entry.
		if _, err := chk.check(rp.entry, lay, rp.body); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: entry %d: %v\n", rp.entry, err)
		}
	}
	var peak peakRSS
	if err := peak.resume(); err != nil {
		return nil, err
	}
	n := int(cfg.phase().Seconds() * serveRate)
	order := requestOrder(cfg.seed, max(n, 1), len(pool))
	ph, err := runServePhase(srv, fillURL(srv), pool, order)
	if err != nil {
		return nil, err
	}
	if err := peak.pause(); err != nil {
		return nil, err
	}
	r := newReport()
	quality, unhealthy := tally(r, chk, ph.replies)
	lat := ph.latencies()
	elapsed := ph.replies[len(ph.replies)-1].done.Sub(ph.replies[0].due).Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: latency s %s; %.3f jobs/s offered %d/s\n",
		describe(lat), float64(r.attempted-r.failed)/elapsed, serveRate)
	if !cfg.trace {
		r.set("cpu_s_per_job", ph.cpu.Seconds()/float64(r.attempted))
		setShares(r, r.attempted, r.failed, unhealthy, quality)
		r.set("peak_rss_mib", peak.maxMiB)
		r.set("setup_s", setup)
		return r, nil
	}

	setRuntime(r, ph.rt0, ph.rt1, r.attempted)
	setJobTimes(r, lat, r.attempted-r.failed, elapsed)
	setServeLayers(r, ph)
	// Traced phase: the same warm-up and requests against a server whose
	// engine solver is wrapped, for the tracing overhead.
	t := newTracer()
	tsrv, err := startServer(serve.Config{Rules: base.Rules, Options: t.options(dummyfill.DefaultOptions())})
	if err != nil {
		return nil, err
	}
	twarm := warm(fillURL(tsrv), pool)
	tph, err := runServePhase(tsrv, fillURL(tsrv), pool, order)
	if err != nil {
		return nil, err
	}
	tally(r, chk, append(twarm, tph.replies...))
	r.set("trace.overhead_share", overhead(tph.latencies(), lat))

	// Engine layers: each entry the measured phase requested once more,
	// serially, built from the pieces the service's job is made of; the
	// bytes must equal the service's reply.
	lt := newTracer()
	lopts := lt.options(dummyfill.DefaultOptions())
	var tot engineTotals
	done := map[int]bool{}
	for _, rp := range ph.replies {
		if done[rp.entry] || !chk.seen(rp.entry) {
			continue
		}
		done[rp.entry] = true
		runtime.GC()
		run, err := lt.tracedJob(context.Background(), rp.entry, pool[rp.entry], iopt, lopts, fillDeck, false)
		if err == nil {
			_, err = chk.compare(rp.entry, sha256.Sum256(run.out))
		}
		if err != nil {
			r.inconsistent = true
			fmt.Fprintf(os.Stderr, "perfbench: replay of entry %d: %v\n", rp.entry, err)
			continue
		}
		tot.add(lt, rp.entry, run)
	}
	tot.setLayers(r, lt)
	setIdle(r, "cache.")
	return r, lt.writeFile(cfg.tracePath())
}

// tally books replies as jobs of r, checking each against its entry's
// reference output, and returns the quality sum of the good ones and how
// many were not healthy.
func tally(r *report, chk *checker, replies []reply) (quality float64, unhealthy int) {
	for _, rp := range replies {
		r.attempted++
		if !rp.healthy {
			unhealthy++
		}
		err := rp.err
		if err == nil {
			var q float64
			q, err = chk.compare(rp.entry, rp.sum)
			quality += q
		}
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: request for entry %d failed: %v\n", rp.entry, err)
		}
	}
	return quality, unhealthy
}

// setServeLayers reports the service-side metrics of an untraced phase:
// from the replies' headers and the /metrics scrapes around it.
func setServeLayers(r *report, ph *servePhase) {
	delta := func(k string) float64 { return ph.after[k] - ph.before[k] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	r.set("serve.queue_wait_mean_s", ratio(delta("fillserved_queue_wait_seconds_sum"), delta("fillserved_queue_wait_seconds_count")))
	r.set("serve.job_mean_s", ratio(delta("fillserved_job_seconds_sum"), delta("fillserved_job_seconds_count")))
	var over, late []float64
	hits, ok, shed := 0, 0, 0
	for _, rp := range ph.replies {
		late = append(late, rp.sent.Sub(rp.due).Seconds())
		if rp.status == http.StatusTooManyRequests {
			shed++
		}
		if rp.err != nil {
			continue
		}
		ok++
		if rp.cacheHit {
			hits++
		}
		if v, found := healthField(rp.health, "elapsed"); found {
			if d, err := time.ParseDuration(v); err == nil {
				over = append(over, (rp.done.Sub(rp.sent) - d).Seconds())
			}
		}
	}
	r.set("serve.overhead_p50_s", median(over))
	r.set("serve.layout_cache_hit_share", ratio(float64(hits), float64(ok)))
	r.set("serve.shed_share", ratio(float64(shed), float64(len(ph.replies))))
	r.set("harness.late_p95_s", percentile(late, 95))
}
