package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dummyfill "dummyfill"
	"dummyfill/internal/dlp"
	"dummyfill/internal/fill"
	"dummyfill/internal/layio"
	"dummyfill/internal/layout"
)

// span is one timed call into a layer, in seconds since the traced run
// began. Spans of one job share Job; Parent names the span that caused
// this one ("job" for the top-level calls). Window spans are instants:
// the moment a window's fills reached the sink.
type span struct {
	Job    int     `json:"job"`
	Layer  string  `json:"layer"`
	Parent string  `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Vars   int     `json:"vars,omitempty"`
}

// tracer keeps a traced run's spans in memory; writeFile saves them when
// the run ends. It is safe for concurrent use: solver spans arrive from
// the engine's worker goroutines.
type tracer struct {
	t0  time.Time
	job atomic.Int64 // job the next solver calls belong to; -1 when unknown

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(job int, layer, parent string, start, end time.Time) {
	t.addSpan(span{Job: job, Layer: layer, Parent: parent,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
}

func (t *tracer) addSpan(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// anyJob selects the spans of every job.
const anyJob = -2

// find returns the spans of layer that belong to job (or to any job).
func (t *tracer) find(job int, layer string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Layer == layer && (job == anyJob || s.Job == job) {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the lengths of ss in seconds.
func durations(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.End - s.Start
	}
	return out
}

func (t *tracer) sum(layer string) float64 { return sum(durations(t.find(anyJob, layer))) }

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// newSolver wraps the default warm-started SSP solver so that every call
// becomes a "solver" span. Options built with it hash differently into
// the fill cache fingerprint than the defaults, so a traced run needs its
// own cold cache.
func (t *tracer) newSolver() dlp.PSolver {
	inner := dlp.NewWarmSSP()
	return func(ctx context.Context, p *dlp.Problem) ([]int64, int64, error) {
		start := time.Now()
		x, obj, err := inner(ctx, p)
		end := time.Now()
		t.addSpan(span{Job: int(t.job.Load()), Layer: "solver", Parent: "fill.run",
			Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(), Vars: p.N()})
		return x, obj, err
	}
}

// tracedOptions are opts with the solver wrapped by t.
func (t *tracer) options(opts fill.Options) fill.Options {
	opts.Solver = nil
	opts.NewSolver = t.newSolver
	return opts
}

// jobShape says how a job's output deck is framed: InsertStreamTo writes
// a TOP structure with the wires first; the fill service writes a FILL
// structure of fills alone.
type jobShape struct {
	structName string
	wires      bool
}

var (
	fullDeck = jobShape{structName: "TOP", wires: true}
	fillDeck = jobShape{structName: "FILL"}
)

// engineRun is what a traced job measured beyond its spans.
type engineRun struct {
	res        *fill.Result
	out        []byte
	fills      int
	wall       time.Duration // the whole job
	engineCPU  time.Duration // process CPU during fill.Engine.RunStream
	allocBytes float64       // heap allocated by ingest
}

// tracedJob runs one job from the public pieces InsertStreamTo is made
// of — ingest, validation, the engine, and the gds shape writer inside
// the engine's sink — timing each call as a span of job. opts should
// come from t.options. With digest set it also times fill.WindowDigests,
// the per-window content hashing the fill cache keys on.
func (t *tracer) tracedJob(ctx context.Context, job int, payload []byte, iopt dummyfill.IngestOptions,
	opts fill.Options, shape jobShape, digest bool) (*engineRun, error) {
	t.job.Store(int64(job))
	defer t.job.Store(-1)
	run := &engineRun{}
	jobStart := time.Now()

	a0 := readRuntime().allocBytes
	s := time.Now()
	lay, err := dummyfill.ReadLayoutFormat(bytes.NewReader(payload), "gds", iopt)
	t.add(job, "ingest", "job", s, time.Now())
	if err != nil {
		return nil, err
	}
	run.allocBytes = readRuntime().allocBytes - a0

	s = time.Now()
	err = lay.Validate()
	t.add(job, "layout.validate", "job", s, time.Now())
	if err != nil {
		return nil, err
	}

	if digest {
		s = time.Now()
		_, _, err = fill.WindowDigests(ctx, lay, opts)
		t.add(job, "cache.digest", "job", s, time.Now())
		if err != nil {
			return nil, err
		}
	}

	f, err := layio.Lookup("gds")
	if err != nil {
		return nil, err
	}
	e, err := fill.New(lay, opts)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	hdr := layio.Header{Name: lay.Name, Struct: shape.structName}
	if shape.wires {
		hdr.Die, hdr.Sites = lay.Die, lay.Sites
	}
	s = time.Now()
	sw, err := f.NewShapeWriter(&buf, hdr)
	if err == nil && shape.wires {
		for li, l := range lay.Layers {
			for _, wr := range l.Wires {
				if err = sw.Write(layio.Shape{Layer: li, Datatype: layio.DatatypeWire, Rect: wr}); err != nil {
					break
				}
			}
		}
	}
	t.add(job, "writer", "job", s, time.Now())
	if err != nil {
		return nil, err
	}

	c0 := cpuTime()
	s = time.Now()
	res, err := e.RunStream(ctx, fill.SinkFunc(func(_ int, fills []layout.Fill) error {
		ws := time.Now()
		t.add(job, "fill.window", "fill.run", ws, ws)
		for _, fl := range fills {
			if err := sw.Write(layio.Shape{Layer: fl.Layer, Datatype: layio.DatatypeFill, Rect: fl.Rect}); err != nil {
				return err
			}
		}
		run.fills += len(fills)
		t.add(job, "writer", "fill.run", ws, time.Now())
		return nil
	}))
	t.add(job, "fill.run", "job", s, time.Now())
	run.engineCPU = cpuTime() - c0
	if err != nil {
		return nil, err
	}

	s = time.Now()
	err = sw.Close()
	t.add(job, "writer", "job", s, time.Now())
	if err != nil {
		return nil, err
	}
	run.res, run.out = res, buf.Bytes()
	run.wall = time.Since(jobStart)
	return run, nil
}

// engineTotals accumulates what traced jobs measured beyond their spans.
type engineTotals struct {
	jobs                  int
	engineCPU, engineWall float64
	allocBytes, outBytes  float64
	windows, sized, fills float64
	firstWindow           []float64
	hits, misses, stale   float64
	cacheErrors, fullMiss float64
}

func (a *engineTotals) add(t *tracer, job int, r *engineRun) {
	a.jobs++
	a.engineCPU += r.engineCPU.Seconds()
	a.allocBytes += r.allocBytes
	a.outBytes += float64(len(r.out))
	h := r.res.Health
	a.windows += float64(h.Windows)
	a.sized += float64(h.Sized)
	a.fills += float64(r.fills)
	a.hits += float64(h.CacheHits)
	a.misses += float64(h.CacheMisses)
	a.stale += float64(h.CacheStale)
	a.cacheErrors += float64(h.CacheErrors)
	if h.CacheHits+h.CacheStale == 0 {
		a.fullMiss++
	}
	run := t.find(job, "fill.run")
	a.engineWall += sum(durations(run))
	if wins := t.find(job, "fill.window"); len(run) == 1 && len(wins) > 0 {
		a.firstWindow = append(a.firstWindow, wins[0].Start-run[0].Start)
	}
}

// setLayers reports the per-job layer metrics of the traced jobs in a.
// The fill cache metrics are set separately by the workload that uses the
// cache.
func (a *engineTotals) setLayers(r *report, t *tracer) {
	n := float64(max(a.jobs, 1))
	r.set("ingest.s", t.sum("ingest")/n)
	r.set("ingest.alloc_mib", a.allocBytes/(1<<20)/n)
	r.set("layout.validate_s", t.sum("layout.validate")/n)
	r.set("fill.run_s", a.engineWall/n)
	r.set("fill.first_window_s", mean(a.firstWindow))
	r.set("fill.windows", a.windows/n)
	r.set("fill.sized", a.sized/n)
	r.set("fill.fills", a.fills/n)
	util := 0.0
	if a.engineWall > 0 {
		util = a.engineCPU / (a.engineWall * float64(runtime.GOMAXPROCS(0)))
	}
	r.set("fill.cpu_utilization", util)
	setSolver(r, t, a.jobs, a.engineCPU)
	writer := t.sum("writer")
	r.set("writer.s", writer/n)
	r.set("writer.bytes", a.outBytes/n)
	rate := 0.0
	if writer > 0 {
		rate = a.outBytes / (1 << 20) / writer
	}
	r.set("writer.mib_per_s", rate)
}

// setSolver reports the solver spans of t over jobs jobs whose engine
// runs used engineCPU seconds of process CPU.
func setSolver(r *report, t *tracer, jobs int, engineCPU float64) {
	n := float64(max(jobs, 1))
	solves := t.find(anyJob, "solver")
	calls := durations(solves)
	busy := sum(calls)
	share := 0.0
	if engineCPU > 0 {
		share = busy / engineCPU
	}
	r.set("solver.calls", float64(len(calls))/n)
	r.set("solver.busy_s", busy/n)
	r.set("solver.share", share)
	r.set("solver.call_p50_ms", median(calls)*1e3)
	r.set("solver.call_p95_ms", percentile(calls, 95)*1e3)
	vars := make([]float64, len(solves))
	for i, s := range solves {
		vars[i] = float64(s.Vars)
	}
	r.set("solver.vars_mean", mean(vars))
	r.set("fill.nonsolver_cpu_s", (engineCPU-busy)/n)
}

// setIdle reports zero for the layers a workload does not exercise.
func setIdle(r *report, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				r.set(d.name, 0)
			}
		}
	}
}
