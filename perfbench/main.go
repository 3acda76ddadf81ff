// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time from a seed, checks every output, and prints one JSON
// line of metrics last on standard output:
//
//	perfbench -workload fill-b -seed 1 -seconds 10 -trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	fill-b      closed loop of cold full-chip fills of an ECO variant of b
//	eco-b       closed loop replaying a chain of ECO edits of b through
//	            the fill cache, from the same cold cache every replay
//	serve-tiny  open loop at a fixed rate against an in-process fill
//	            service, payloads drawn from ECO variants of tiny
//
// With -trace 0 it prints the end-to-end metrics, measured untraced. With
// -trace 1 it runs the same inputs untraced and then traced, timing calls
// into each layer's public functions from outside the engine, and prints
// the per-layer metrics; the spans go to <workdir>/trace. run.sh builds
// and runs it from a checkout.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dummyfill/internal/synth"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string // keeps trace files
	tmp      string // this run's fill caches; removed when it ends
}

// phase is the measuring time of one phase: the whole run untraced, half
// of it each for the untraced and traced phases of a traced run.
func (c config) phase() time.Duration {
	if c.trace {
		return c.seconds / 2
	}
	return c.seconds
}

// setupReps is how many times set-up runs, n unless the run is traced:
// a traced run reports no set-up time and sets up once.
func (c config) setupReps(n int) int {
	if c.trace {
		return 1
	}
	return n
}

func (c config) tracePath() string {
	return filepath.Join(c.workdir, "trace", fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
}

// workloads maps each workload to its run function and the synthetic
// design its inputs are made from.
var workloads = map[string]struct {
	run    func(config, synth.Spec) (*report, error)
	design synth.Spec
}{
	"fill-b":     {fillB, synth.DesignB()},
	"eco-b":      {ecoB, synth.DesignB()},
	"serve-tiny": {serveTiny, synth.DesignTiny()},
}

func main() { os.Exit(run()) }

func run() int {
	var (
		cfg     config
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: fill-b, eco-b or serve-tiny")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.IntVar(&seconds, "seconds", 10, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run printing per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "where trace files and per-run fill caches go")
	flag.Parse()
	w, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload fill-b|eco-b|serve-tiny -seed n -seconds s -trace 0|1")
		return 2
	}
	cfg.seconds, cfg.trace = time.Duration(seconds)*time.Second, trace == 1
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg.tmp = dir
	r, err := w.run(cfg, w.design)
	if err == nil {
		defs := endToEnd
		if cfg.trace {
			defs = perLayer
		}
		err = r.write(os.Stdout, defs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}
