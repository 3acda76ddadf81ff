package main

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
)

// metricDef names one reported metric and its unit. The lists below must
// match BENCHMARK.json at the repository root (checked by the tests).
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics every workload prints with
// -trace 0: per-job CPU time, success, health, output quality and memory,
// plus the cost of set-up. Times here are process CPU seconds. Wall time
// is not steady enough to gate on a shared host: at the same CPU time per
// job it moved by half between minutes as other tenants' load came and
// went, so the wall-clock job times are the harness.* per-layer metrics.
// None of these is ever zero on a run that completes a job, which is why
// success and health are shares of good jobs rather than of bad ones.
var endToEnd = []metricDef{
	{"cpu_s_per_job", "s"},
	{"ok_share", "ratio"},
	{"healthy_share", "ratio"},
	{"quality", "score"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics every workload prints with -trace 1, named
// after the module whose public functions they time. A layer a workload
// does not exercise reads 0 there (the fill cache is off on fill-b and
// serve-tiny; only serve-tiny goes through internal/serve).
var perLayer = []metricDef{
	{"ingest.s", "s"},
	{"ingest.alloc_mib", "MiB"},
	{"layout.validate_s", "s"},
	{"fill.run_s", "s"},
	{"fill.first_window_s", "s"},
	{"fill.windows", "count"},
	{"fill.sized", "count"},
	{"fill.fills", "count"},
	{"fill.cpu_utilization", "ratio"},
	{"fill.nonsolver_cpu_s", "s"},
	{"solver.calls", "count"},
	{"solver.busy_s", "s"},
	{"solver.share", "ratio"},
	{"solver.call_p50_ms", "ms"},
	{"solver.call_p95_ms", "ms"},
	{"solver.vars_mean", "count"},
	{"cache.hit_share", "ratio"},
	{"cache.miss_windows", "count"},
	{"cache.stale_windows", "count"},
	{"cache.errors", "count"},
	{"cache.full_miss_steps", "count"},
	{"cache.bytes_written", "B"},
	{"cache.digest_s", "s"},
	{"writer.s", "s"},
	{"writer.bytes", "B"},
	{"writer.mib_per_s", "MiB/s"},
	{"serve.queue_wait_mean_s", "s"},
	{"serve.job_mean_s", "s"},
	{"serve.overhead_p50_s", "s"},
	{"serve.layout_cache_hit_share", "ratio"},
	{"serve.shed_share", "ratio"},
	{"runtime.alloc_mib_per_job", "MiB"},
	{"runtime.gc_cycles_per_job", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"harness.job_p50_s", "s"},
	{"harness.job_tail_s", "s"},
	{"harness.jobs_per_s", "1/s"},
	{"harness.late_p95_s", "s"},
	{"trace.overhead_share", "ratio"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// report is one run's outcome: the job counts and the metric values of
// the requested kind.
type report struct {
	attempted, failed int
	// inconsistent is set when a run-level check failed that belongs to
	// no single job (traced output or counters differ from the untraced
	// run's).
	inconsistent bool
	values       map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the result line holding exactly the metrics in defs. A
// metric the workload did not set is a bug in the workload.
func (r *report) write(w io.Writer, defs []metricDef) error {
	line := resultLine{
		Correct:   r.failed == 0 && !r.inconsistent && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
