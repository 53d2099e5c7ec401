// Command perfbench is the DoCeph-Sim benchmark. It runs one seeded
// workload against the default build, Baseline and DoCeph arms, checks the
// results, and prints every metric by name and unit; the last line of its
// standard output is the JSON result.
//
//	perfbench --workload paper-write --seed 42 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics of untraced runs; --trace 1 adds
// a traced, CPU-profiled run and prints the per-layer metrics. It exits 1
// when a correctness check fails and 2 on bad arguments.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"doceph/internal/sim"
)

// minRepeats is the fewest untraced repeats a run makes, whatever --seconds
// says, so that every wall-clock metric is a median of several samples.
const minRepeats = 3

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 42, "input seed")
	seconds := flag.Int("seconds", 20, "host seconds to spend on measured repeats")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	fp, _ := json.Marshal(map[string]any{
		"workload": w.name, "seed": w.seed, "cores": runtime.NumCPU(), "gomaxprocs": procs,
		"go": runtime.Version(), "window_s": w.window().Seconds(), "warmup_s": w.warmup().Seconds(),
		"kernel_workers": max(w.workers, 1),
		"budget_s":       *seconds, "trace": *traced,
	})
	fmt.Println("host", string(fp))

	r := measure(w, time.Duration(*seconds)*time.Second, *traced == 1)
	names := endToEnd
	if *traced == 1 {
		names = perLayer()
	}
	out := result{Correct: r.err == nil, Attempted: max(r.attempted, 1), Failed: r.failed,
		Metrics: map[string]metricValue{}}
	if r.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", r.err)
		out.Failed = out.Attempted
	}
	for _, d := range names {
		v := r.metrics[d.name]
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-48s %16s %s\n", d.name, strconv.FormatFloat(v, 'g', 8, 64), d.unit)
	}
	if *traced == 1 {
		fmt.Printf("# paper.table2_switch_ratio is a held-back check: the paper reports %.2f at 4 MB\n",
			paperTable2SwitchRatio)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is a run's metrics and its correctness record. err is the first
// failed check; metrics are then incomplete.
type outcome struct {
	metrics           map[string]float64
	attempted, failed int64
	err               error
}

// repeat is one untraced run of both arms with its host-side figures.
type repeat struct {
	arms  []armResult
	model map[string]float64
}

func (o *outcome) count(arms []armResult) {
	for _, a := range arms {
		o.attempted += a.attempted
		o.failed += a.failed
	}
}

// measure runs untraced repeats of w until budget has passed (at least
// minRepeats), checks that their modelled metrics agree exactly, and reports
// the modelled metrics with the median of each wall-clock metric. With
// traced set it adds the per-layer metrics of one traced, CPU-profiled run.
func measure(w workload, budget time.Duration, traced bool) outcome {
	o := outcome{metrics: map[string]float64{}}
	var reps []repeat
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	cpu0 := cpuSeconds()
	start := time.Now()
	for len(reps) < minRepeats || time.Since(start) < budget {
		arms, err := w.run(false)
		o.count(arms)
		if err != nil {
			o.err = err
			return o
		}
		rep := repeat{arms: arms, model: combine(arms)}
		if len(reps) > 0 && !reflect.DeepEqual(rep.model, reps[0].model) {
			o.err = fmt.Errorf("modelled metrics differ between repeats 1 and %d of seed %d", len(reps)+1, w.seed)
			return o
		}
		reps = append(reps, rep)
		for _, a := range arms {
			fmt.Fprintf(os.Stderr, "repeat %d %-8s setup %.3fs  measured %.3fs  teardown %.3fs\n",
				len(reps), a.mode, (a.clusterNew + a.warmup).Seconds(), a.measure.Seconds(), a.teardown.Seconds())
		}
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	cpu1 := cpuSeconds()

	for k, v := range reps[0].model {
		o.metrics[k] = v
	}
	if w.name == "paper-write" {
		o.metrics["paper_err_pct"] = paperErrPct(reps[0].model)
	} else {
		// The calibration fit is reported on every workload: re-run the
		// paper-write arms once, untimed, at this seed.
		pw, _ := newWorkload("paper-write", w.seed) // a known name cannot fail
		arms, err := pw.run(false)
		o.count(arms)
		if err != nil {
			o.err = err
			return o
		}
		o.metrics["paper_err_pct"] = paperErrPct(combine(arms))
	}

	// total gives, per repeat, the sum of f over the repeat's arms.
	total := func(f func(a armResult) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			for _, a := range r.arms {
				xs[i] += f(a)
			}
		}
		return xs
	}
	div := func(n, d []float64) []float64 {
		out := make([]float64, len(n))
		for i := range n {
			out[i] = n[i] / d[i]
		}
		return out
	}
	wall := total(func(a armResult) float64 { return a.measure.Seconds() })
	ops := total(func(a armResult) float64 { return float64(a.ops) })
	o.metrics["host_wall_s"] = median(wall)
	o.metrics["setup_s"] = median(total(func(a armResult) float64 { return (a.clusterNew + a.warmup).Seconds() }))
	o.metrics["allocs_per_op"] = median(div(total(func(a armResult) float64 { return float64(a.allocs) }), ops))
	o.metrics["host.cluster_new_s"] = median(total(func(a armResult) float64 { return a.clusterNew.Seconds() }))
	o.metrics["host.warmup_s"] = median(total(func(a armResult) float64 { return a.warmup.Seconds() }))
	o.metrics["host.teardown_s"] = median(total(func(a armResult) float64 { return a.teardown.Seconds() }))
	o.metrics["sim.events_per_host_s"] = median(div(total(func(a armResult) float64 { return float64(a.events) }), wall))
	if w.scale != nil {
		o.metrics["sim.group_rounds_per_s"] = median(div(total(func(a armResult) float64 { return float64(a.group.Rounds) }), wall))
	}
	if cpu1.total > cpu0.total {
		o.metrics["host.gc_cpu_frac"] = (cpu1.gc - cpu0.gc) / (cpu1.total - cpu0.total)
	}
	o.metrics["host.gc_pause_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6 / float64(len(reps))

	if traced {
		if err := traceRun(w, reps, &o); err != nil {
			o.err = err
			return o
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		o.err = err
		return o
	}
	o.metrics["peak_rss_mb"] = rss
	o.metrics["rados.ops_failed_frac"] = ratio(o.failed, o.attempted)
	return o
}

// traceRun adds the per-layer metrics that need a traced run: the
// two-node workloads re-run with the cluster tracer on, the scale-out one
// (which has no tracer) re-runs untraced. Either run is CPU-profiled, and
// its modelled metrics must equal the untraced repeats' (observer effect
// zero).
func traceRun(w workload, reps []repeat, o *outcome) error {
	sw, err := switchNs()
	if err != nil {
		return fmt.Errorf("switch loop: %w", err)
	}
	o.metrics["sim.switch_ns"] = sw

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	arms, err := w.run(w.bench != nil)
	pprof.StopCPUProfile()
	o.count(arms)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(combine(arms), reps[0].model) {
		return fmt.Errorf("observer effect: the traced run's modelled metrics differ from the untraced run's")
	}
	shares, err := attribute(prof.Bytes())
	if err != nil {
		return err
	}
	for b, v := range shares {
		o.metrics["prof."+b+"_pct"] = v
	}
	if w.bench == nil {
		return nil
	}
	var tracedWall time.Duration
	for _, a := range arms {
		tracedWall += a.measure
		for k, v := range stageMetrics(a.mode.String(), a.spans, a.ops) {
			o.metrics[k] = v
		}
	}
	o.metrics["trace.overhead_pct"] = (tracedWall.Seconds()/o.metrics["host_wall_s"] - 1) * 100
	return nil
}

// combine merges the arms' modelled metrics with the workload-level ones.
func combine(arms []armResult) map[string]float64 {
	m := map[string]float64{}
	var events uint64
	var ops int64
	var windows, delivered uint64
	for _, a := range arms {
		for k, v := range a.model {
			m[k] = v
		}
		events += a.events
		ops += a.ops
		windows += a.group.Windows
		delivered += a.group.Delivered
	}
	m["sim.events_per_op"] = ratio(int64(events), ops)
	m["sim.group_windows"] = float64(windows)
	m["sim.group_delivered"] = float64(delivered)
	return m
}

// switchNs times proc switches in isolation: two procs on one Env take
// turns through Proc.Wait. It reports the median of five loops.
func switchNs() (float64, error) {
	const waits = 100000
	var xs []float64
	for i := 0; i < 5; i++ {
		env := sim.NewEnv(1)
		for j := 0; j < 2; j++ {
			env.Spawn("switch", func(p *sim.Proc) {
				for k := 0; k < waits; k++ {
					p.Wait(1)
				}
			})
		}
		t := time.Now()
		err := env.Run()
		el := time.Since(t)
		env.Shutdown()
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(el.Nanoseconds())/(2*waits))
	}
	return median(xs), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

type cpuTimes struct{ gc, total float64 }

// cpuSeconds reads the runtime's cumulative GC and total CPU estimates.
func cpuSeconds() cpuTimes {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuTimes{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
