package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	dummyfill "dummyfill"
	"dummyfill/internal/fill"
	"dummyfill/internal/layout"
)

// plainJob is one untraced fill-b or eco-b job as a user runs it: read
// the GDS payload, then fill it straight into out.
func plainJob(ctx context.Context, payload []byte, iopt dummyfill.IngestOptions, opts fill.Options, out *bytes.Buffer) (*layout.Layout, *fill.Result, error) {
	lay, err := dummyfill.ReadLayoutFormat(bytes.NewReader(payload), "gds", iopt)
	if err != nil {
		return nil, nil, err
	}
	res, err := dummyfill.InsertStreamTo(ctx, out, lay, opts, "gds")
	return lay, res, err
}

// closedLoop keeps the per-job records of a closed loop, where one job
// starts when the previous one has finished.
type closedLoop struct {
	chk  *checker
	peak peakRSS

	wall, cpu                    []float64
	attempted, failed, unhealthy int
	qualitySum                   float64
	busy                         time.Duration
}

func newClosedLoop(coeffs dummyfill.Coefficients) *closedLoop {
	return &closedLoop{chk: newChecker(coeffs)}
}

// finish books one job of input that took wall and cpu and ended with
// err, or produced out from lay with result res. The output check runs
// here, outside the job's timing and, when it is a full check, outside
// the peak memory measurement too. extra is a further check the
// workload makes on res; nil means none.
func (l *closedLoop) finish(input int, wall, cpu time.Duration, lay *layout.Layout, out []byte,
	res *fill.Result, err error, extra func(*fill.Result) error) error {
	l.attempted++
	l.busy += wall
	l.wall = append(l.wall, wall.Seconds())
	l.cpu = append(l.cpu, cpu.Seconds())
	if err != nil || !res.Health.Healthy() {
		l.unhealthy++
	}
	if err == nil {
		err = checkHealth(res.Health)
	}
	if err == nil && extra != nil {
		err = extra(res)
	}
	var q float64
	if err == nil {
		full := !l.chk.seen(input)
		if full {
			if perr := l.peak.pause(); perr != nil {
				return perr
			}
		}
		q, err = l.chk.check(input, lay, out)
		if full {
			if perr := l.peak.resume(); perr != nil {
				return perr
			}
		}
	}
	if err != nil {
		l.failed++
		fmt.Fprintf(os.Stderr, "perfbench: job %d (input %d) failed: %v\n", l.attempted, input, err)
		return nil
	}
	l.qualitySum += q
	return nil
}

// setEndToEnd reports the loop's user-visible metrics. Jobs here run one
// at a time, so each job's CPU time is its own and the median is taken.
func (l *closedLoop) setEndToEnd(r *report) error {
	if err := l.peak.pause(); err != nil {
		return err
	}
	r.attempted, r.failed = l.attempted, l.failed
	r.set("cpu_s_per_job", median(l.cpu))
	setShares(r, l.attempted, l.failed, l.unhealthy, l.qualitySum)
	r.set("peak_rss_mib", l.peak.maxMiB)
	fmt.Fprintf(os.Stderr, "perfbench: job wall s %s; job cpu s %s; %.3f jobs/s\n",
		describe(l.wall), describe(l.cpu), float64(l.attempted-l.failed)/l.busy.Seconds())
	return nil
}

// setJobTimes reports the wall time of jobs: the median, the tail by the
// reporting rule (the median itself when too few jobs ran for any higher
// percentile), and okJobs completed jobs per second of busy time. They
// are per-layer metrics of the harness, not end-to-end ones: wall time on
// a shared host moves with other tenants' load (see BENCHMARK.json).
func setJobTimes(r *report, times []float64, okJobs int, busy float64) {
	p50 := median(times)
	r.set("harness.job_p50_s", p50)
	_, v, ok := tail(times)
	if !ok {
		v = p50
	}
	r.set("harness.job_tail_s", v)
	rate := 0.0
	if busy > 0 {
		rate = float64(okJobs) / busy
	}
	r.set("harness.jobs_per_s", rate)
}

func setShares(r *report, attempted, failed, unhealthy int, qualitySum float64) {
	n := float64(max(attempted, 1))
	r.set("ok_share", float64(attempted-failed)/n)
	r.set("healthy_share", float64(attempted-unhealthy)/n)
	q := 0.0
	if ok := attempted - failed; ok > 0 {
		q = qualitySum / float64(ok)
	}
	r.set("quality", q)
}

// timeSetup runs setup reps times and returns the median of the process
// CPU time each took; the state of the last repetition is the one the
// run uses.
func timeSetup(reps int, setup func() error) (float64, error) {
	var cpu, wall []float64
	for i := 0; i < reps; i++ {
		c0, t0 := cpuTime(), time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		wall = append(wall, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: setup cpu s %v wall s %v\n", cpu, wall)
	return median(cpu), nil
}
