package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	dummyfill "dummyfill"
	"dummyfill/internal/fill"
	"dummyfill/internal/layout"
	"dummyfill/internal/synth"
)

// ecoSteps is the length of the eco-b chain after its base layout.
const ecoSteps = 8

// fillB is the fill-b workload: a closed loop of cold full-chip fills of
// one ECO variant of design sp (b), with the fill cache off.
func fillB(cfg config, sp synth.Spec) (*report, error) {
	var (
		iopt    dummyfill.IngestOptions
		coeffs  dummyfill.Coefficients
		payload []byte
	)
	setup, err := timeSetup(cfg.setupReps(3), func() error {
		base, c, err := design(sp)
		if err != nil {
			return err
		}
		iopt, coeffs = ingestOptions(base), c
		payload, err = ecoInput(base, cfg.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	opts := dummyfill.DefaultOptions()
	loop := newClosedLoop(coeffs)
	if err := loop.peak.resume(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	budget := cfg.phase()
	rt0 := readRuntime()
	var out bytes.Buffer
	for loop.attempted == 0 || loop.busy < budget {
		out.Reset()
		var (
			lay *layout.Layout
			res *fill.Result
		)
		wall, cpu := timed(func() { lay, res, err = plainJob(ctx, payload, iopt, opts, &out) })
		if err := loop.finish(0, wall, cpu, lay, out.Bytes(), res, err, nil); err != nil {
			return nil, err
		}
	}
	rt1 := readRuntime()
	r := newReport()
	if !cfg.trace {
		r.set("setup_s", setup)
		return r, loop.setEndToEnd(r)
	}

	r.attempted, r.failed = loop.attempted, loop.failed
	setRuntime(r, rt0, rt1, loop.attempted)
	setJobTimes(r, loop.wall, loop.attempted-loop.failed, loop.busy.Seconds())
	t := newTracer()
	topts := t.options(opts)
	var tot engineTotals
	var traced []float64
	for job := 0; job == 0 || sum(traced) < budget.Seconds(); job++ {
		r.attempted++
		runtime.GC()
		run, err := t.tracedJob(ctx, job, payload, iopt, topts, fullDeck, false)
		if err == nil {
			_, err = loop.chk.compare(0, sha256.Sum256(run.out))
		}
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: traced job %d failed: %v\n", job, err)
			break
		}
		traced = append(traced, run.wall.Seconds())
		tot.add(t, job, run)
	}
	tot.setLayers(r, t)
	setIdle(r, "cache.", "serve.")
	r.set("harness.late_p95_s", 0)
	r.set("trace.overhead_share", overhead(traced, loop.wall))
	return r, t.writeFile(cfg.tracePath())
}

// cacheCounts are the deterministic fill-cache counters of one step.
type cacheCounts struct{ windows, hits, misses, stale int }

func countsOf(h fill.Health) cacheCounts {
	return cacheCounts{h.Windows, h.CacheHits, h.CacheMisses, h.CacheStale}
}

// ecoB is the eco-b workload: a closed loop replaying a chain of
// successive ECO edits of design sp (b) through the fill cache, every
// replay starting from the cache state the cold fill of the chain's base
// left.
func ecoB(cfg config, sp synth.Spec) (*report, error) {
	var (
		iopt     dummyfill.IngestOptions
		coeffs   dummyfill.Coefficients
		payloads [][]byte
		cold     string
	)
	opts := dummyfill.DefaultOptions()
	// Set-up (design, chain, cold fill) takes about 14 s on b, so it runs
	// twice rather than three times to keep a run near a minute.
	setup, err := timeSetup(cfg.setupReps(2), func() error {
		_ = os.RemoveAll(cold) // the last repetition's; the run's directory goes at exit anyway
		base, c, err := design(sp)
		if err != nil {
			return err
		}
		iopt, coeffs = ingestOptions(base), c
		if payloads, err = ecoChain(base, cfg.seed, ecoSteps); err != nil {
			return err
		}
		cold, err = coldCache(cfg.tmp, payloads[0], iopt, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	loop := newClosedLoop(coeffs)
	if err := loop.peak.resume(); err != nil {
		return nil, err
	}
	ctx := context.Background()
	budget := cfg.phase()
	steps := map[int]cacheCounts{}
	sameCounts := func(k int) func(*fill.Result) error {
		return func(res *fill.Result) error {
			c := countsOf(res.Health)
			if want, ok := steps[k]; ok && c != want {
				return fmt.Errorf("step %d: cache counters %+v, first replay had %+v", k, c, want)
			}
			steps[k] = c
			return nil
		}
	}
	rt0 := readRuntime()
	var out bytes.Buffer
	// Untraced, whole chains until the budget is spent; traced runs
	// compare against exactly one untraced chain.
	for chain := 0; chain == 0 || !cfg.trace && loop.busy < budget; chain++ {
		live, cache, err := cloneCache(cold)
		if err != nil {
			return nil, err
		}
		o := opts
		o.Cache = cache
		for k := 1; k <= ecoSteps; k++ {
			out.Reset()
			var (
				lay *layout.Layout
				res *fill.Result
			)
			wall, cpu := timed(func() { lay, res, err = plainJob(ctx, payloads[k], iopt, o, &out) })
			if err := loop.finish(k, wall, cpu, lay, out.Bytes(), res, err, sameCounts(k)); err != nil {
				return nil, err
			}
		}
		if err := os.RemoveAll(live); err != nil {
			return nil, err
		}
	}
	rt1 := readRuntime()
	r := newReport()
	if !cfg.trace {
		r.set("setup_s", setup)
		return r, loop.setEndToEnd(r)
	}

	r.attempted, r.failed = loop.attempted, loop.failed
	setRuntime(r, rt0, rt1, loop.attempted)
	setJobTimes(r, loop.wall, loop.attempted-loop.failed, loop.busy.Seconds())
	// The wrapped solver changes the cache fingerprint, so the traced
	// chain replays from a cold fill of its own made with the same
	// wrapped options (from a throwaway tracer: the fingerprint hashes the
	// method, not the receiver).
	tcold, err := coldCache(cfg.tmp, payloads[0], iopt, newTracer().options(opts))
	if err != nil {
		return nil, err
	}
	live, cache, err := cloneCache(tcold)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	topts := t.options(opts)
	topts.Cache = cache
	var tot engineTotals
	var traced []float64
	var written int64
	for k := 1; k <= ecoSteps; k++ {
		r.attempted++
		before, err := dirSize(live)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		run, err := t.tracedJob(ctx, k, payloads[k], iopt, topts, fullDeck, true)
		if err == nil {
			_, err = loop.chk.compare(k, sha256.Sum256(run.out))
		}
		if err == nil {
			if c := countsOf(run.res.Health); c != steps[k] {
				err = fmt.Errorf("cache counters %+v, untraced run had %+v", c, steps[k])
			}
		}
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: traced step %d failed: %v\n", k, err)
			continue
		}
		after, err := dirSize(live)
		if err != nil {
			return nil, err
		}
		written += after - before
		traced = append(traced, run.wall.Seconds()-sum(durations(t.find(k, "cache.digest"))))
		tot.add(t, k, run)
	}
	tot.setLayers(r, t)
	n := float64(max(tot.jobs, 1))
	hit := 0.0
	if tot.windows > 0 {
		hit = tot.hits / tot.windows
	}
	r.set("cache.hit_share", hit)
	r.set("cache.miss_windows", tot.misses/n)
	r.set("cache.stale_windows", tot.stale/n)
	r.set("cache.errors", tot.cacheErrors/n)
	r.set("cache.full_miss_steps", tot.fullMiss)
	r.set("cache.bytes_written", float64(written)/n)
	r.set("cache.digest_s", t.sum("cache.digest")/n)
	setIdle(r, "serve.")
	r.set("harness.late_p95_s", 0)
	r.set("trace.overhead_share", overhead(traced, loop.wall))
	return r, t.writeFile(cfg.tracePath())
}

// timed runs one job from a freshly collected heap, as a job in a process
// of its own would start, and returns its wall and CPU time.
func timed(job func()) (wall, cpu time.Duration) {
	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	job()
	return time.Since(t0), cpuTime() - c0
}

// overhead is the share by which the traced median job time exceeds the
// untraced one.
func overhead(traced, untraced []float64) float64 {
	u := median(untraced)
	if u == 0 || len(traced) == 0 {
		return 0
	}
	return (median(traced) - u) / u
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// coldCache fills a fresh fill-cache directory under root by filling the
// payload once with opts, and returns the directory.
func coldCache(root string, payload []byte, iopt dummyfill.IngestOptions, opts fill.Options) (string, error) {
	dir, err := os.MkdirTemp(root, "cache-cold-")
	if err != nil {
		return "", err
	}
	cache, err := dummyfill.OpenFillCache(dir)
	if err != nil {
		return dir, err
	}
	opts.Cache = cache
	var out bytes.Buffer
	_, _, err = plainJob(context.Background(), payload, iopt, opts, &out)
	return dir, err
}

// cloneCache copies the cache directory src to a fresh directory beside
// it and opens the copy.
func cloneCache(src string) (string, *dummyfill.FillCache, error) {
	dst, err := os.MkdirTemp(filepath.Dir(src), "cache-live-")
	if err != nil {
		return "", nil, err
	}
	err = filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		return copyFile(path, to)
	})
	if err != nil {
		return dst, nil, err
	}
	cache, err := dummyfill.OpenFillCache(dst)
	return dst, cache, err
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
