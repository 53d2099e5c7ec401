// Command docephbench regenerates every table and figure of the paper's
// evaluation section from the simulation.
//
// Usage:
//
//	docephbench [-exp NAME] [-quick] [-seconds N] [-threads N] [-seed N]
//	            [-sim-workers LIST] [-trace [-trace-out PREFIX] [-trace-size N]]
//
// NAME is "all" (the default) or one experiment, in output order: fig5,
// fig6, table2, fig7, fig8, table3, fig9, fig10, smallops, mq, read,
// readpath, streaming, stability, scale, scaleout, scaleout128, chaos,
// selfheal, ablation. "all" runs the paper's figures and tables plus read,
// stability, scale and ablation; the other extensions run only by name.
// -trace adds the traced per-stage breakdown (alone, it replaces "all").
//
// With -quick the runs are shortened (8 s measured window instead of the
// paper's 60 s); shapes are preserved.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"doceph"
	"doceph/internal/perf"
	"doceph/internal/report"
)

// experiment is one -exp target: run prints its tables.
type experiment struct {
	name  string
	inAll bool // part of -exp all
	run   func() error
}

// show returns an experiment body that prints banner (unless empty), runs
// run and prints its result as rendered by render.
func show[T any](banner string, render func(T) *report.Table, run func() (T, error)) func() error {
	return func() error {
		if banner != "" {
			fmt.Println(banner)
		}
		v, err := run()
		if err == nil {
			fmt.Println(render(v))
		}
		return err
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, or one experiment name (see the package documentation)")
	quick := flag.Bool("quick", false, "short runs (8s window) instead of the paper's 60s")
	seconds := flag.Int("seconds", 0, "override the measured window length in seconds")
	threads := flag.Int("threads", 16, "concurrent bench clients")
	seed := flag.Int64("seed", 42, "simulation seed")
	traceRun := flag.Bool("trace", false, "run traced benchmarks (baseline + DoCeph) and print per-stage CPU/latency breakdowns")
	traceOut := flag.String("trace-out", "", "with -trace: write Chrome trace_event JSON to <prefix>-baseline.json and <prefix>-doceph.json")
	traceSize := flag.Int64("trace-size", 4<<20, "with -trace: request size in bytes")
	simWorkers := flag.String("sim-workers", "", "scaleout/scaleout128: comma-separated parallel kernel worker counts to compare (default 1,2,4,8)")
	flag.Parse()

	opts := doceph.FullOptions()
	if *quick {
		opts = doceph.QuickOptions()
	}
	if *seconds > 0 {
		opts.Duration = doceph.Duration(*seconds) * doceph.Second
	}
	opts.Threads = *threads
	opts.Seed = *seed

	// Experiments that render several tables run once, on first use.
	profile := sync.OnceValues(func() (doceph.MessengerProfileResult, error) {
		fmt.Println("running messenger profile (baseline, 1G vs 100G)...")
		return doceph.RunMessengerProfile(opts)
	})
	sizes := sync.OnceValues(func() ([]doceph.SizeComparison, error) {
		fmt.Println("running size sweep (baseline vs DoCeph, 1-16MB writes)...")
		return doceph.RunSizeSweep(opts, nil)
	})
	// scaleOut runs one preset of the partitioned scale-out runner on the
	// parallel event kernel, re-running its sweep arm at every -sim-workers
	// count; the runner fails unless the full simulated result is
	// byte-identical across counts (only wall-clock throughput may move).
	scaleOut := func(banner string, quickWindow doceph.Duration,
		preset func(seed int64, window, warmup doceph.Duration) doceph.ScaleOutOptions) func() error {
		return func() error {
			fmt.Println(banner)
			var window, warmup doceph.Duration
			if *seconds > 0 {
				window = doceph.Duration(*seconds) * doceph.Second
			} else if *quick {
				window, warmup = quickWindow, 250*doceph.Millisecond
			}
			sopts := preset(opts.Seed, window, warmup)
			if *simWorkers != "" {
				counts, err := perf.ParseWorkerList(*simWorkers)
				if err != nil {
					return err
				}
				sopts.Workers = counts
			}
			rows, err := doceph.RunScaleOut(sopts)
			if err == nil {
				fmt.Println(doceph.ScaleOutTable(rows))
			}
			return err
		}
	}

	// Extensions outside "all" are below the paper's 1MB floor (smallops,
	// mq), probe mechanisms the paper leaves to future work (readpath,
	// streaming), need a larger cluster (scaleout, scaleout128) or are
	// robustness experiments rather than paper figures (chaos, selfheal).
	experiments := []experiment{
		{"fig5", true, show("", doceph.MessengerProfileResult.Fig5Table, profile)},
		{"fig6", true, show("", doceph.MessengerProfileResult.Fig6Table, profile)},
		{"table2", true, show("", doceph.MessengerProfileResult.Table2, profile)},
		{"fig7", true, show("", doceph.Fig7Table, sizes)},
		{"fig8", true, show("", doceph.Fig8Table, sizes)},
		{"table3", true, show("", doceph.Table3, sizes)},
		{"fig9", true, show("", doceph.Fig9Table, sizes)},
		{"fig10", true, show("", doceph.Fig10Table, sizes)},
		{"smallops", false, show("running small-op sweep (baseline vs DoCeph vs DoCeph+batching, 4-256KB writes)...",
			doceph.SmallOpsTable, func() ([]doceph.SmallOpComparison, error) { return doceph.RunSmallOpsSweep(opts, nil) })},
		{"mq", false, show("running multi-queue ablation (batched DoCeph, 1/2/4/8 queues, 4-64KB writes)...",
			doceph.MultiQueueTable, func() ([]doceph.MultiQueueCell, error) { return doceph.RunMultiQueueSweep(opts, nil, nil) })},
		{"read", true, show("running read-path extension sweep...",
			doceph.ReadTable, func() ([]doceph.ReadComparison, error) { return doceph.RunReadSweep(opts, nil) })},
		{"readpath", false, func() error {
			fmt.Println("running read-path ablation (op mix x balance x DPU cache x deployment)...")
			rows, err := doceph.RunReadPathAblation(opts)
			if err != nil {
				return err
			}
			fmt.Println(doceph.ReadPathTable(rows))
			fmt.Println("running block-device comparison (striped RBD-style volume)...")
			brows, err := doceph.RunBlockDeviceComparison(opts)
			if err == nil {
				fmt.Println(doceph.BlockDeviceTable(brows))
			}
			return err
		}},
		{"streaming", false, show("running streaming ablation (store-and-forward vs chunk pipelining, 4-64MB writes)...",
			doceph.StreamingTable, func() ([]doceph.StreamingResult, error) { return doceph.RunStreamingAblation(opts) })},
		{"stability", true, show("running stability comparison (per-second throughput)...",
			doceph.StabilityTable, func() (doceph.StabilityResult, error) { return doceph.RunStability(opts, 4<<20) })},
		{"scale", true, show("running scale-out sweep (2/4/8 nodes)...",
			doceph.ScaleTable, func() ([]doceph.ScaleRow, error) { return doceph.RunScaleSweep(opts, nil) })},
		{"scaleout", false, scaleOut("running partitioned scale-out (8 racks x 4 OSDs, parallel kernel)...",
			doceph.Second, doceph.ScaleOut32)},
		{"scaleout128", false, scaleOut("running 128-OSD scale-out (16 racks x 8 OSDs, popularity x balance-reads)...",
			500*doceph.Millisecond, doceph.ScaleOut128)},
		{"chaos", false, show("running chaos experiment (fault plan, baseline vs DoCeph)...",
			doceph.ChaosTable, func() (doceph.FaultResult, error) { return doceph.RunChaos(opts, 0, nil) })},
		{"selfheal", false, func() error {
			fmt.Println("running self-healing experiment (OSD crash + DPU fault, baseline vs DoCeph)...")
			r, err := doceph.RunSelfHeal(opts, 0, nil)
			if err != nil {
				return err
			}
			fmt.Println(doceph.SelfHealTable(r))
			fmt.Println("running self-healing ablation (DoCeph, breaker x QoS)...")
			rows, err := doceph.RunSelfHealAblation(opts, 0)
			if err == nil {
				fmt.Println(doceph.SelfHealAblationTable(rows))
			}
			return err
		}},
		// Selected by -trace, not -exp.
		{"trace", false, func() error {
			fmt.Println("running traced benchmark (baseline vs DoCeph)...")
			r, err := doceph.RunTraceBreakdown(opts, *traceSize)
			if err != nil {
				return err
			}
			fmt.Println(r.Baseline.StageTable(r.SizeBytes))
			fmt.Println(r.DoCeph.StageTable(r.SizeBytes))
			fmt.Println(r.CPUAttributionTable())
			if *traceOut == "" {
				return nil
			}
			for _, run := range []doceph.TracedRun{r.Baseline, r.DoCeph} {
				path := fmt.Sprintf("%s-%s.json", *traceOut, run.Mode)
				if err := os.WriteFile(path, doceph.ChromeTrace(run.Spans), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s (%d spans)\n", path, len(run.Spans))
			}
			return nil
		}},
		{"ablation", true, show("running ablations...",
			doceph.AblationTable, func() ([]doceph.AblationResult, error) { return doceph.RunAblations(opts) })},
	}

	all := *exp == "all"
	picked := func(e experiment) bool {
		if e.name == "trace" {
			return *traceRun
		}
		// -trace alone means "just the traced run".
		return all && e.inAll && !*traceRun || strings.EqualFold(*exp, e.name)
	}
	var names []string
	known := all
	for _, e := range experiments {
		if e.name != "trace" {
			names = append(names, e.name)
			known = known || strings.EqualFold(*exp, e.name)
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "docephbench: unknown experiment %q; want all, %s\n",
			*exp, strings.Join(names, ", "))
		os.Exit(2)
	}
	for _, e := range experiments {
		if !picked(e) {
			continue
		}
		if err := e.run(); err != nil {
			fmt.Fprintln(os.Stderr, "docephbench:", err)
			os.Exit(1)
		}
	}
}
