package exp

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers for -pprof
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiling bundles the standard profiling options shared by the CLIs
// (repro, fillgen): a CPU profile, an exit heap profile and a
// live net/http/pprof endpoint. Register the flags, then wrap the work in
// Start/stop:
//
//	var prof exp.Profiling
//	prof.RegisterFlags(flag.CommandLine)
//	flag.Parse()
//	stop, err := prof.Start()
//	if err != nil { ... }
//	defer stop()
type Profiling struct {
	CPUProfile string
	MemProfile string
	PprofAddr  string
}

// RegisterFlags registers -cpuprofile, -memprofile and -pprof on fs.
func (p *Profiling) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&p.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while running")
}

// Start begins the requested profiling and returns a stop function to
// defer: it finalizes the CPU profile and writes the heap profile.
// Failures after Start (pprof server, heap profile write) are reported to
// stderr rather than aborting the run — the measured work matters more
// than the measurement.
func (p *Profiling) Start() (stop func(), err error) {
	if p.PprofAddr != "" {
		addr := p.PprofAddr
		//filllint:allow goleak -- the debug pprof listener intentionally lives for the whole process; there is no join or cancel edge to prove
		go func() {
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof server:", err)
			}
		}()
	}
	var cpuFile *os.File
	if p.CPUProfile != "" {
		cpuFile, err = os.Create(p.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	memProfile := p.MemProfile
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memProfile != "" {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "heap profile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "heap profile:", err)
			}
		}
	}, nil
}
