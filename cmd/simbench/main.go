// Command simbench measures the simulator's own wall-clock performance
// (events/sec, ns/op, allocs/op over the radosbench sweep) and maintains
// BENCH_sim.json: a pre-optimization baseline recorded once plus the
// current numbers and their ratios, so `make bench` tracks the perf
// trajectory from PR to PR.
//
// A failed benchmark run exits non-zero before touching the result file:
// BENCH_sim.json is only ever rewritten from a complete, successful sweep
// (see perf.UpdateFile).
//
// Usage:
//
//	go run ./cmd/simbench                 # update "current", compare to baseline
//	go run ./cmd/simbench -rebaseline     # overwrite the stored baseline too
//	go run ./cmd/simbench -smoke          # short sweep, no file written
//	go run ./cmd/simbench -smoke -guard BENCH_sim.json
//	                                      # also fail on a gross perf regression
//	go run ./cmd/simbench -workers 1      # serial sweep with per-scenario
//	                                      # alloc attribution (default runs
//	                                      # scenarios on parallel workers)
//	go run ./cmd/simbench -sim-workers 1,2,8
//	                                      # scale-out rows at these kernel
//	                                      # worker counts (@wN rows)
//	go run ./cmd/simbench -cpuprofile cpu.pprof -memprofile mem.pprof
//	                                      # kernel hotspot profiles for
//	                                      # `go tool pprof` (see EXPERIMENTS.md)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"doceph/internal/perf"
)

func main() {
	var (
		out         = flag.String("out", "BENCH_sim.json", "result file to maintain")
		rebaseline  = flag.Bool("rebaseline", false, "record this run as the baseline")
		smoke       = flag.Bool("smoke", false, "short sweep, print only, no file written")
		guard       = flag.String("guard", "", "fail if events/sec falls below -guard-ratio of this file's current record")
		guardRatio  = flag.Float64("guard-ratio", 0.3, "minimum fraction of the recorded events/sec the run must reach")
		guardAllocs = flag.Float64("guard-allocs-ratio", 2.0, "maximum multiple of the recorded allocs/op the run may reach (0 disables)")
		workers     = flag.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS, 1 = serial with per-scenario alloc attribution)")
		simWorkers  = flag.String("sim-workers", "", "comma-separated kernel worker counts for the scale-out rows (e.g. 1,2,8; empty keeps the sweep's defaults)")
		minSpeedup  = flag.Float64("min-speedup", 3.0, "nominal @w1-vs-widest events/s floor for scale-out families (scaled to the host's cores; 0 disables)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memprofile  = flag.String("memprofile", "", "write an allocation profile taken after the sweep to this file")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}

	sweep := perf.DefaultSweep()
	if *smoke {
		sweep = perf.SmokeSweep()
	}
	if *simWorkers != "" {
		counts, err := perf.ParseWorkerList(*simWorkers)
		if err != nil {
			fail(err)
		}
		sweep = perf.ScaleOutWorkerRows(sweep, counts)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	rep, err := perf.RunSweepWorkers(sweep, *workers)
	if err != nil {
		fail(err)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		f.Close()
	}

	for _, m := range rep.Scenarios {
		fmt.Printf("%-24s %8d ops  %12.0f events/s  %10.0f ns/op  %8.1f allocs/op\n",
			m.Name, m.Ops, m.EventsPerSec, m.NsPerOp, m.AllocsPerOp)
	}
	fmt.Printf("%-24s %21.0f events/s  %10.0f ns/op  %8.1f allocs/op\n",
		"TOTAL", rep.EventsPerSec, rep.NsPerOp, rep.AllocsPerOp)
	if *minSpeedup > 0 {
		sum, err := perf.GuardParallelSpeedup(rep, *minSpeedup)
		if sum != "" {
			fmt.Println(sum)
		}
		if err != nil {
			fail(err)
		}
	}
	if *guard != "" {
		if err := perf.Guard(*guard, rep, *guardRatio, *guardAllocs); err != nil {
			fail(err)
		}
	}
	if *smoke {
		return
	}

	f, err := perf.UpdateFile(*out, rep, *rebaseline)
	if err != nil {
		fail(err)
	}
	fmt.Printf("vs baseline: %.2fx events/s, %.2fx allocs/op\n",
		f.SpeedupEventsPerSec, f.AllocsPerOpRatio)
}
