package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"doceph/internal/cluster"
	"doceph/internal/perf"
	"doceph/internal/rados"
	"doceph/internal/radosbench"
	"doceph/internal/sim"
	"doceph/internal/trace"
)

// Workload shapes. Every knob not named here stays at its shipped default.
const (
	// The paper runs 60 s windows; at 1 MB every reported figure of a 20 s
	// window is within 0.2 % of the 60 s one, at a third of the host time.
	paperWindow = 20 * sim.Second
	paperWarmup = 5 * sim.Second
	mixWindow   = 4 * sim.Second
	mixWarmup   = 1 * sim.Second
	// mixObjects is small-mix's read working set. The radosbench default of
	// four objects per client (64) leaves the two primaries' read load to
	// the hash of 64 names, so IOPS would swing ±5 % with the seed.
	mixObjects  = 1024
	scaleWindow = 1 * sim.Second
	scaleWarmup = 500 * sim.Millisecond
	// scaleWorkers is the partitioned kernel's worker count, kept at the
	// two cores a small host offers.
	scaleWorkers = 2
	// readbackSample is how many acknowledged objects each arm reads back.
	readbackSample = 32
)

var workloadNames = []string{"paper-write", "small-mix", "scaleout-128"}

// workload is one benchmark input: either a two-node closed-loop rados
// bench run (bench) or the 128-OSD partitioned scale-out (scale). Both run
// a Baseline and a DoCeph arm.
type workload struct {
	name    string
	seed    int64
	bench   *radosbench.Config
	scale   *cluster.ScaleOutConfig
	workers int
}

// newWorkload builds a workload's inputs from the seed: the seed drives the
// cluster RNG and popularity draws, and names the objects, which moves
// their CRUSH placement.
func newWorkload(name string, seed int64) (workload, error) {
	w := workload{name: name, seed: seed}
	prefix := fmt.Sprintf("pb%d", seed)
	switch name {
	case "paper-write":
		w.bench = &radosbench.Config{Threads: 16, ObjectBytes: 1 << 20, Op: radosbench.Write,
			Duration: paperWindow, Warmup: paperWarmup, Prefix: prefix, PopSeed: seed}
	case "small-mix":
		w.bench = &radosbench.Config{Threads: 16, ObjectBytes: 4 << 10, Op: radosbench.Mixed,
			ReadPercent: 70, PrepopulateObjects: mixObjects, Duration: mixWindow, Warmup: mixWarmup,
			Prefix: prefix, PopSeed: seed}
	case "scaleout-128":
		w.workers = scaleWorkers
		w.scale = &cluster.ScaleOutConfig{Pods: 16, OSDsPerPod: 8, Seed: seed, Threads: 2,
			ObjectBytes: 64 << 10, ReadPercent: 70, Duration: scaleWindow, Warmup: scaleWarmup,
			Popularity: radosbench.Popularity{Kind: radosbench.PopZipf}, BalanceReads: true,
			CollectImbalance: true}
	default:
		return w, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// window is the measured simulated interval of one arm.
func (w workload) window() sim.Duration {
	if w.scale != nil {
		return w.scale.Duration
	}
	return w.bench.Duration
}

// warmup is the simulated interval before the measured window.
func (w workload) warmup() sim.Duration {
	if w.scale != nil {
		return w.scale.Warmup
	}
	return w.bench.Warmup
}

// armResult is one deployment arm of one repeat.
type armResult struct {
	mode cluster.Mode
	// model holds every modelled metric of the arm by its reported name.
	// Modelled values are functions of the configuration and seed only.
	model map[string]float64
	// ops and events are the measured window's completed client ops and
	// kernel events.
	ops    int64
	events uint64
	// attempted and failed count workload ops plus readback checks.
	attempted, failed int64
	// Host wall-clock phases and heap allocations in the measured window.
	clusterNew, warmup, measure, teardown time.Duration
	allocs                                uint64
	// Scale-out only: barrier rounds, windows and cross-rack deliveries.
	group sim.GroupStats
	// spans are the traced arm's measured-window spans (nil untraced).
	spans []trace.Span
}

// run executes both arms of the workload once.
func (w workload) run(traced bool) ([]armResult, error) {
	var arms []armResult
	for _, mode := range []cluster.Mode{cluster.Baseline, cluster.DoCeph} {
		// Start every arm from a collected heap, so that garbage left by the
		// previous arm does not land in this arm's timings.
		runtime.GC()
		var a armResult
		var err error
		if w.scale != nil {
			a, err = w.runScaleOut(mode)
		} else {
			a, err = w.runTwoNode(mode, traced)
		}
		if err != nil {
			return nil, fmt.Errorf("%s %s arm: %w", w.name, mode, err)
		}
		arms = append(arms, a)
	}
	return arms, nil
}

// heapAllocs is the process's cumulative heap allocation count.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runTwoNode assembles the paper's two-storage-node testbed and runs the
// closed-loop bench on it.
func (w workload) runTwoNode(mode cluster.Mode, traced bool) (a armResult, err error) {
	a.mode = mode
	start := time.Now()
	cl := cluster.New(cluster.Config{Mode: mode, Seed: w.seed, Trace: traced})
	a.clusterNew = time.Since(start)
	defer func() {
		t := time.Now()
		cl.Shutdown()
		a.teardown = time.Since(t)
	}()

	clusters := []*cluster.Cluster{cl}
	var (
		warmEnd time.Time
		before  counters
		ev0     uint64
		allocs0 uint64
	)
	cfg := *w.bench
	cfg.OnWarmupEnd = func() {
		cl.ResetHostStats()
		before = snapshot(clusters)
		ev0 = cl.Env.Events()
		allocs0 = heapAllocs()
		warmEnd = time.Now()
	}
	res, err := radosbench.Run(cl.Env, cl.Client, cfg)
	end := time.Now()
	a.allocs = heapAllocs() - allocs0
	if err != nil {
		return a, err
	}
	a.warmup = warmEnd.Sub(start) - a.clusterNew
	a.measure = end.Sub(warmEnd)
	a.events = cl.Env.Events() - ev0
	a.ops = res.Ops
	a.attempted = res.Ops

	a.model = armModel(mode, res.IOPS(), res.AvgLatency, res.Ops, clusters,
		snapshot(clusters).sub(before), cfg.Duration)
	arm := mode.String()
	a.model["rados."+arm+".lat_p50_ms"] = ms(res.P50)
	a.model["rados."+arm+".lat_p99_ms"] = ms(res.P99)
	for _, c := range []struct {
		name string
		st   radosbench.ClassStats
	}{{"read", res.ReadStats}, {"write", res.WriteStats}} {
		a.model["rados."+arm+"."+c.name+".iops"] = c.st.IOPS(res.Window)
		a.model["rados."+arm+"."+c.name+".lat_p99_ms"] = ms(c.st.P99)
	}

	if traced {
		a.spans = cl.Tracer.Spans()
		if err := checkTrace(cl, a.spans); err != nil {
			return a, err
		}
	}

	checked, bad, err := w.readbackTwoNode(cl, res)
	a.attempted += checked
	a.failed += bad
	return a, err
}

// checkTrace runs the span-structure and CPU-conservation invariants.
func checkTrace(cl *cluster.Cluster, spans []trace.Span) error {
	busy := map[string]sim.Duration{cl.ClientCPU.Name(): cl.ClientCPU.Stats().TotalBusy}
	for _, n := range cl.Nodes {
		busy[n.HostCPU.Name()] = n.HostCPU.Stats().TotalBusy
		if n.DPU != nil {
			busy[n.DPU.CPU.Name()] = n.DPU.CPU.Stats().TotalBusy
		}
	}
	if err := trace.CheckInvariants(spans); err != nil {
		return fmt.Errorf("trace invariants: %w", err)
	}
	if err := trace.CheckCPUConservation(spans, busy); err != nil {
		return fmt.Errorf("trace cpu conservation: %w", err)
	}
	return nil
}

// readbackTwoNode reads a seeded sample of acknowledged objects through the
// public client and compares each with the bench payload. A write-only run
// acknowledged each worker's first writes in order, and no worker falls
// below half the mean write count in a symmetric closed loop, so that range
// is sampled. A mixed run chose reads and writes by RNG, so its sample is
// the prepopulated read set plus candidate write names, of which a missing
// one was a read and is skipped.
func (w workload) readbackTwoNode(cl *cluster.Cluster, res radosbench.Result) (checked, bad int64, err error) {
	cfg := w.bench
	rng := rand.New(rand.NewSource(w.seed))
	type probe struct {
		name        string
		mayBeAbsent bool
	}
	var probes []probe
	perWorker := int(res.WriteStats.Ops) / cfg.Threads / 2
	if perWorker < 1 {
		perWorker = 1
	}
	mixed := cfg.Op == radosbench.Mixed
	for i := 0; i < readbackSample; i++ {
		if mixed && i%2 == 0 {
			probes = append(probes, probe{name: fmt.Sprintf("%s_prepop_%d", cfg.Prefix, rng.Intn(cfg.PrepopulateObjects))})
			continue
		}
		name := fmt.Sprintf("%s_w%d_%d", cfg.Prefix, rng.Intn(cfg.Threads), rng.Intn(perWorker))
		probes = append(probes, probe{name: name, mayBeAbsent: mixed})
	}
	want := radosbench.Payload(cfg.ObjectBytes)
	done := false
	cl.Env.Spawn("perfbench-readback", func(p *sim.Proc) {
		for _, pr := range probes {
			bl, rerr := cl.Client.Read(p, pr.name, 0, 0)
			switch {
			case pr.mayBeAbsent && errors.Is(rerr, rados.ErrNotFound):
			case rerr != nil || !bl.Equal(want):
				checked++
				bad++
			default:
				checked++
			}
		}
		done = true
	})
	if err := drive(cl.Env, &done); err != nil {
		return checked, bad, fmt.Errorf("readback: %w", err)
	}
	if bad > 0 {
		return checked, bad, fmt.Errorf("readback: %d of %d objects differ from the written payload", bad, checked)
	}
	return checked, bad, nil
}

// drive advances env until *done is set, bounded to a simulated minute.
func drive(env *sim.Env, done *bool) error {
	for i := 0; !*done; i++ {
		if i == 60 {
			return errors.New("not finished after 60 simulated seconds")
		}
		if err := env.RunUntil(env.Now().Add(sim.Second)); err != nil {
			return err
		}
	}
	return nil
}

// runScaleOut assembles the 16-rack partitioned cluster and runs it on the
// partitioned kernel. Its warmup boundary is internal to Run, so setup is
// NewScaleOut alone and per-layer counters span the whole run.
func (w workload) runScaleOut(mode cluster.Mode) (a armResult, err error) {
	a.mode = mode
	cfg := *w.scale
	cfg.Mode = mode
	start := time.Now()
	so := cluster.NewScaleOut(cfg)
	a.clusterNew = time.Since(start)
	defer func() {
		t := time.Now()
		so.Shutdown()
		a.teardown = time.Since(t)
	}()

	allocs0 := heapAllocs()
	t := time.Now()
	res, err := so.Run(w.workers)
	a.measure = time.Since(t)
	a.allocs = heapAllocs() - allocs0
	if err != nil {
		return a, err
	}
	a.events = res.Events
	a.ops = res.TotalOps
	a.attempted = res.TotalOps
	a.group = so.Group.Stats()

	clusters := make([]*cluster.Cluster, len(so.Pods))
	for i, pod := range so.Pods {
		clusters[i] = pod.Cluster
	}
	a.model = armModel(mode, float64(res.TotalOps)/cfg.Duration.Seconds(), res.AvgLatency(),
		res.TotalOps, clusters, snapshot(clusters), cfg.Warmup+cfg.Duration)
	if mode == cluster.DoCeph {
		im := perf.ComputeImbalance(res)
		a.model["cluster.max_mean_osd_share"] = im.MaxMeanOSDShare
		a.model["cluster.qd_p99_p50"] = im.QueueDepthP99P50
		a.model["cluster.balanced_read_share"] = im.BalancedReadShare
		a.model["cluster.xrack_msgs_per_op"] = ratio(int64(res.Delivered), res.TotalOps)
	}

	checked, bad, err := readbackScaleOut(so)
	a.attempted += checked
	a.failed += bad
	return a, err
}

// readbackScaleOut reads a seeded sample of the popularity catalog from
// every rack. The catalog is prepopulated in each object's home rack before
// any op, so each sampled object must be found in exactly one rack, with the
// bench payload.
func readbackScaleOut(so *cluster.ScaleOut) (checked, bad int64, err error) {
	cfg := so.Cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	names := make([]string, readbackSample)
	for i := range names {
		names[i] = fmt.Sprintf("so_obj_%d", rng.Intn(cfg.Popularity.Objects))
	}
	want := radosbench.Payload(cfg.ObjectBytes)
	found := make([]int, len(names))
	corrupt := make([]bool, len(names))
	for _, pod := range so.Pods {
		cl := pod.Cluster
		done := false
		cl.Env.Spawn("perfbench-readback", func(p *sim.Proc) {
			for i, name := range names {
				bl, rerr := cl.Client.Read(p, name, 0, 0)
				switch {
				case errors.Is(rerr, rados.ErrNotFound):
				case rerr != nil || !bl.Equal(want):
					corrupt[i] = true
				default:
					found[i]++
				}
			}
			done = true
		})
		if err := drive(cl.Env, &done); err != nil {
			return checked, bad, fmt.Errorf("readback rack %d: %w", pod.ID, err)
		}
	}
	for i, n := range found {
		checked++
		if n != 1 || corrupt[i] {
			bad++
		}
	}
	if bad > 0 {
		return checked, bad, fmt.Errorf("readback: %d of %d catalog objects missing, duplicated or corrupt", bad, checked)
	}
	return checked, bad, nil
}
