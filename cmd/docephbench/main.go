// Command docephbench regenerates every table and figure of the paper's
// evaluation section from the simulation.
//
// Usage:
//
//	docephbench [-exp all|fig5|fig6|table2|fig7|fig8|fig9|fig10|table3|read|smallops|ablation|chaos]
//	            [-quick] [-seconds N] [-threads N] [-seed N]
//	            [-batch-bytes N] [-batch-op-bytes N] [-batch-delay-us N] [-batch-idle-us N]
//
// With -quick the runs are shortened (8 s measured window instead of the
// paper's 60 s); shapes are preserved.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"doceph"
	"doceph/internal/perf"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, fig5, fig6, table2, fig7, fig8, fig9, fig10, table3, read, readpath, smallops, mq, streaming, ablation, stability, scale, scaleout, scaleout128, chaos, selfheal")
	quick := flag.Bool("quick", false, "short runs (8s window) instead of the paper's 60s")
	seconds := flag.Int("seconds", 0, "override the measured window length in seconds")
	threads := flag.Int("threads", 16, "concurrent bench clients")
	seed := flag.Int64("seed", 42, "simulation seed")
	traceRun := flag.Bool("trace", false, "run traced benchmarks (baseline + DoCeph) and print per-stage CPU/latency breakdowns")
	traceOut := flag.String("trace-out", "", "with -trace: write Chrome trace_event JSON to <prefix>-baseline.json and <prefix>-doceph.json")
	traceSize := flag.Int64("trace-size", 4<<20, "with -trace: request size in bytes")
	batchBytes := flag.Int64("batch-bytes", 0, "smallops: max coalesced frame payload bytes (0 = default 1MB)")
	batchOpBytes := flag.Int64("batch-op-bytes", 0, "smallops: largest op eligible for batching (0 = default 256KB)")
	batchDelayUs := flag.Int64("batch-delay-us", 0, "smallops: max per-op batching delay in µs (0 = default 400)")
	batchIdleUs := flag.Int64("batch-idle-us", 0, "smallops: queue-idle flush gap in µs (0 = default 40)")
	dmaQueues := flag.Int("dma-queues", 0, "DPU DMA engine queues on DoCeph arms (0 = default 1, the serial engine)")
	opShards := flag.Int("op-shards", 0, "OSD op-queue shards (0 = default 1)")
	msgrLanes := flag.Int("msgr-lanes", 0, "messenger lanes per connection (0 = follow -dma-queues)")
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
	opts.Batch = doceph.BatchConfig{
		MaxBatchBytes: *batchBytes,
		MaxOpBytes:    *batchOpBytes,
		MaxDelay:      doceph.Duration(*batchDelayUs) * doceph.Microsecond,
		IdleDelay:     doceph.Duration(*batchIdleUs) * doceph.Microsecond,
	}
	opts.DMAQueues = *dmaQueues
	opts.OpShards = *opShards
	opts.MsgrLanes = *msgrLanes
	fopts := doceph.FaultOptions{Duration: opts.Duration, Threads: opts.Threads, Seed: opts.Seed}

	// -trace alone means "just the traced run": keep the full sweep only if
	// the user also asked for a specific experiment.
	if *traceRun && *exp == "all" {
		*exp = "none"
	}

	want := func(names ...string) bool {
		if *exp == "all" {
			return true
		}
		for _, n := range names {
			if strings.EqualFold(*exp, n) {
				return true
			}
		}
		return false
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "docephbench:", err)
		os.Exit(1)
	}

	if want("fig5", "fig6", "table2") {
		fmt.Println("running messenger profile (baseline, 1G vs 100G)...")
		prof, err := doceph.RunMessengerProfile(opts)
		if err != nil {
			fail(err)
		}
		if want("fig5") {
			fmt.Println(prof.Fig5Table())
		}
		if want("fig6") {
			fmt.Println(prof.Fig6Table())
		}
		if want("table2") {
			fmt.Println(prof.Table2())
		}
	}

	if want("fig7", "fig8", "fig9", "fig10", "table3") {
		fmt.Println("running size sweep (baseline vs DoCeph, 1-16MB writes)...")
		rows, err := doceph.RunSizeSweep(opts, nil)
		if err != nil {
			fail(err)
		}
		if want("fig7") {
			fmt.Println(doceph.Fig7Table(rows))
		}
		if want("fig8") {
			fmt.Println(doceph.Fig8Table(rows))
		}
		if want("table3") {
			fmt.Println(doceph.Table3(rows))
		}
		if want("fig9") {
			fmt.Println(doceph.Fig9Table(rows))
		}
		if want("fig10") {
			fmt.Println(doceph.Fig10Table(rows))
		}
	}

	// Smallops is opt-in (not part of "all"): it is an extension below the
	// paper's 1MB floor, probing the Figure-10 gap and what adaptive
	// batching buys back.
	if strings.EqualFold(*exp, "smallops") {
		fmt.Println("running small-op sweep (baseline vs DoCeph vs DoCeph+batching, 4-256KB writes)...")
		rows, err := doceph.RunSmallOpsSweep(opts, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(doceph.SmallOpsTable(rows))
	}

	// The multi-queue ablation is opt-in (not part of "all"): like smallops
	// it is an extension probing the serial-engine ceiling below the
	// paper's 1MB floor.
	if strings.EqualFold(*exp, "mq") {
		fmt.Println("running multi-queue ablation (batched DoCeph, 1/2/4/8 queues, 4-64KB writes)...")
		rows, err := doceph.RunMultiQueueSweep(opts, nil, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(doceph.MultiQueueTable(rows))
	}

	if want("read") {
		fmt.Println("running read-path extension sweep...")
		rows, err := doceph.RunReadSweep(opts, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(doceph.ReadTable(rows))
	}

	// Readpath is opt-in (not part of "all"): it is the full read-path
	// extension — op mixes, queue depth, replica-read balancing and the
	// DPU-side read cache, plus the RBD-style striped block device.
	if strings.EqualFold(*exp, "readpath") {
		fmt.Println("running read-path ablation (op mix x balance x DPU cache x deployment)...")
		rows, err := doceph.RunReadPathAblation(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(doceph.ReadPathTable(rows))
		fmt.Println("running block-device comparison (striped RBD-style volume)...")
		brows, err := doceph.RunBlockDeviceComparison(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(doceph.BlockDeviceTable(brows))
	}

	// Streaming is opt-in (not part of "all"): it ablates the flow-controlled
	// chunk-pipelined data plane against store-and-forward for large objects,
	// across credit-window sizes on both deployments.
	if strings.EqualFold(*exp, "streaming") {
		fmt.Println("running streaming ablation (store-and-forward vs chunk pipelining, 4-64MB writes)...")
		rows, err := doceph.RunStreamingAblation(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(doceph.StreamingTable(rows))
	}

	if want("stability") {
		fmt.Println("running stability comparison (per-second throughput)...")
		r, err := doceph.RunStability(opts, 4<<20)
		if err != nil {
			fail(err)
		}
		fmt.Println(doceph.StabilityTable(r))
	}

	if want("scale") {
		fmt.Println("running scale-out sweep (2/4/8 nodes)...")
		rows, err := doceph.RunScaleSweep(opts, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(doceph.ScaleTable(rows))
	}

	// Scaleout and scaleout128 are opt-in (not part of "all"): two presets
	// of the partitioned scale-out runner. Each runs its arms on the
	// parallel event kernel and re-runs one arm at every -sim-workers count,
	// failing unless the full simulated result is byte-identical across
	// counts; only wall-clock throughput may move.
	for _, p := range []struct {
		name, banner string
		quick        doceph.Duration
		preset       func(seed int64, window, warmup doceph.Duration) doceph.ScaleOutOptions
	}{
		{"scaleout", "running partitioned scale-out (8 racks x 4 OSDs, parallel kernel)...",
			doceph.Second, doceph.ScaleOut32},
		{"scaleout128", "running 128-OSD scale-out (16 racks x 8 OSDs, popularity x balance-reads)...",
			500 * doceph.Millisecond, doceph.ScaleOut128},
	} {
		if !strings.EqualFold(*exp, p.name) {
			continue
		}
		fmt.Println(p.banner)
		var window, warmup doceph.Duration
		if *seconds > 0 {
			window = doceph.Duration(*seconds) * doceph.Second
		} else if *quick {
			window, warmup = p.quick, 250*doceph.Millisecond
		}
		sopts := p.preset(opts.Seed, window, warmup)
		if *simWorkers != "" {
			counts, err := perf.ParseWorkerList(*simWorkers)
			if err != nil {
				fail(err)
			}
			sopts.Workers = counts
		}
		rows, err := doceph.RunScaleOut(sopts)
		if err != nil {
			fail(err)
		}
		fmt.Println(doceph.ScaleOutTable(rows))
	}

	// Chaos is opt-in (not part of "all"): it is a robustness experiment,
	// not a paper figure.
	if strings.EqualFold(*exp, "chaos") {
		fmt.Println("running chaos experiment (fault plan, baseline vs DoCeph)...")
		r, err := doceph.RunChaos(fopts, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(doceph.ChaosTable(r))
	}

	// Selfheal is opt-in (not part of "all"): it is a robustness experiment
	// driving the compound OSD-crash + DPU-fault schedule through the
	// circuit breaker, degraded-mode writes and recovery QoS, then ablating
	// breaker x QoS on the DoCeph arm.
	if strings.EqualFold(*exp, "selfheal") {
		fmt.Println("running self-healing experiment (OSD crash + DPU fault, baseline vs DoCeph)...")
		r, err := doceph.RunSelfHeal(fopts, nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(doceph.SelfHealTable(r))
		fmt.Println("running self-healing ablation (DoCeph, breaker x QoS)...")
		rows, err := doceph.RunSelfHealAblation(fopts)
		if err != nil {
			fail(err)
		}
		fmt.Println(doceph.SelfHealAblationTable(rows))
	}

	// Tracing is opt-in (not part of "all"): it is an observability view,
	// not a paper figure.
	if *traceRun {
		fmt.Println("running traced benchmark (baseline vs DoCeph)...")
		r, err := doceph.RunTraceBreakdown(opts, *traceSize)
		if err != nil {
			fail(err)
		}
		fmt.Println(r.Baseline.StageTable(r.SizeBytes))
		fmt.Println(r.DoCeph.StageTable(r.SizeBytes))
		fmt.Println(r.CPUAttributionTable())
		if *traceOut != "" {
			for _, run := range []doceph.TracedRun{r.Baseline, r.DoCeph} {
				path := fmt.Sprintf("%s-%s.json", *traceOut, run.Mode)
				if err := os.WriteFile(path, doceph.ChromeTrace(run.Spans), 0o644); err != nil {
					fail(err)
				}
				fmt.Printf("wrote %s (%d spans)\n", path, len(run.Spans))
			}
		}
	}

	if want("ablation") {
		fmt.Println("running ablations...")
		rows, err := doceph.RunAblations(opts)
		if err != nil {
			fail(err)
		}
		fmt.Println(doceph.AblationTable(rows))
	}
}
