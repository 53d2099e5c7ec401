// Package perf measures the wall-clock throughput of the simulator itself:
// events/sec through the DES kernel, wall-clock ns per completed benchmark
// op and heap allocations per op, over a small fixed radosbench sweep. The
// numbers feed BENCH_sim.json (via cmd/simbench) so the perf trajectory of
// the simulator is tracked across PRs — simulated results are asserted
// bit-identical separately by the golden-determinism test.
package perf

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"doceph/internal/cluster"
	"doceph/internal/radosbench"
	"doceph/internal/sim"
)

// Scenario is one cell of the sweep: a cluster mode and workload shape run
// at a fixed seed. The transport knobs (queues, shards, lanes, batching)
// default to the serial shape; the multi-queue scenario sets all four.
type Scenario struct {
	Name        string       `json:"name"`
	Mode        cluster.Mode `json:"mode"`
	ObjectBytes int64        `json:"object_bytes"`
	Threads     int          `json:"threads"`
	DurationSec int          `json:"duration_sec"`
	WarmupSec   int          `json:"warmup_sec"`
	Seed        int64        `json:"seed"`

	// DMAQueues / OpShards / MsgrLanes / Batch reshape the DoCeph transport
	// (multi-queue DMA engine, sharded OSD dispatch, messenger lanes,
	// adaptive batching). Zero/false keeps the serial defaults.
	DMAQueues int  `json:"dma_queues,omitempty"`
	OpShards  int  `json:"op_shards,omitempty"`
	MsgrLanes int  `json:"msgr_lanes,omitempty"`
	Batch     bool `json:"batch,omitempty"`

	// Op selects the workload pattern: "" or "write" (default), "read", or
	// "mixed" with ReadPercent as the read share. Read and mixed scenarios
	// prepopulate their read targets before the measured window.
	Op          string `json:"op,omitempty"`
	ReadPercent int    `json:"read_percent,omitempty"`

	// ScaleOutPods > 0 switches the scenario from the single-cluster
	// radosbench harness to the partitioned scale-out assembly
	// (cluster.NewScaleOut): ScaleOutPods racks of OSDsPerPod OSDs each,
	// executed by the conservative parallel kernel on SimWorkers worker
	// goroutines (0 or 1 = serial barrier loop). The simulated result is
	// bit-identical across SimWorkers; only the wall-clock side may move.
	ScaleOutPods int `json:"scaleout_pods,omitempty"`
	OSDsPerPod   int `json:"osds_per_pod,omitempty"`
	SimWorkers   int `json:"sim_workers,omitempty"`

	// Workload selects the scale-out object-popularity model ("uniform",
	// "zipf" or "hotspot"; "" keeps the legacy per-thread stride). With a
	// workload set, ReadPercent mixes catalog reads in and BalanceReads
	// spreads them across rack-local acting sets. Scale-out only.
	Workload     string `json:"workload,omitempty"`
	BalanceReads bool   `json:"balance_reads,omitempty"`

	// Stream turns on the flow-controlled chunk-pipelined data plane: large
	// writes travel as credit-windowed chunk frames and the OSDs ingest them
	// incrementally instead of reassembling one monolithic op. Keeps the
	// streaming path (pump procs, per-chunk transactions, credit-on-commit)
	// on the perf radar.
	Stream bool `json:"stream,omitempty"`

	// Degraded runs the scenario through the self-healing write path:
	// osd.1 is administratively down when the workload starts (min_size=1
	// accepts the degraded writes) and rejoins halfway through the
	// measured window, so the second half is backfill under the recovery
	// QoS knobs. This keeps the degraded ledger, recovery pacing and
	// op-queue backoff on the perf radar, not just the clean path.
	Degraded bool `json:"degraded,omitempty"`
}

// DefaultSweep is the radosbench sweep `make bench` runs: both deployment
// modes at two paper object sizes, plus the batched multi-queue small-op
// shape so the parallel transport paths are tracked like the serial ones.
// Small enough to finish in seconds of wall clock, large enough that the
// kernel and data plane dominate.
func DefaultSweep() []Scenario {
	return []Scenario{
		{Name: "baseline-1M", Mode: cluster.Baseline, ObjectBytes: 1 << 20, Threads: 16, DurationSec: 3, WarmupSec: 1, Seed: 42},
		{Name: "baseline-4M", Mode: cluster.Baseline, ObjectBytes: 4 << 20, Threads: 16, DurationSec: 3, WarmupSec: 1, Seed: 42},
		{Name: "doceph-1M", Mode: cluster.DoCeph, ObjectBytes: 1 << 20, Threads: 16, DurationSec: 3, WarmupSec: 1, Seed: 42},
		{Name: "doceph-4M", Mode: cluster.DoCeph, ObjectBytes: 4 << 20, Threads: 16, DurationSec: 3, WarmupSec: 1, Seed: 42},
		{Name: "doceph-mq4-64K", Mode: cluster.DoCeph, ObjectBytes: 64 << 10, Threads: 16, DurationSec: 3, WarmupSec: 1, Seed: 42,
			DMAQueues: 4, OpShards: 4, MsgrLanes: 4, Batch: true},
		{Name: "doceph-degraded-4K", Mode: cluster.DoCeph, ObjectBytes: 4 << 10, Threads: 16, DurationSec: 3, WarmupSec: 1, Seed: 42,
			Degraded: true},
		{Name: "doceph-read-4K", Mode: cluster.DoCeph, ObjectBytes: 4 << 10, Threads: 16, DurationSec: 3, WarmupSec: 1, Seed: 42,
			Op: "read"},
		{Name: "doceph-mix70-4K", Mode: cluster.DoCeph, ObjectBytes: 4 << 10, Threads: 16, DurationSec: 3, WarmupSec: 1, Seed: 42,
			Op: "mixed", ReadPercent: 70},
		{Name: "doceph-stream-16M", Mode: cluster.DoCeph, ObjectBytes: 16 << 20, Threads: 4, DurationSec: 3, WarmupSec: 1, Seed: 42,
			Stream: true},
		scaleOutAt(scaleOut32, 1, 2),
		scaleOutAt(scaleOut32, 8, 2),
		scaleOutAt(scaleOut128, 1, 1),
		scaleOutAt(scaleOut128, 8, 1),
	}
}

// The partitioned scale-out shapes tracked by the sweeps: 32 OSDs (8 racks
// x 4) under a uniform write flood, and 128 OSDs (16 racks x 8) under a
// Zipf-skewed 70/30 read mix with replica-read balancing on, so the rows
// track the parallel kernel under the hot-PG shape production fears too.
var (
	scaleOut32 = Scenario{Name: "doceph-scaleout-32osd", ObjectBytes: 256 << 10, Threads: 4,
		ScaleOutPods: 8, OSDsPerPod: 4}
	scaleOut128 = Scenario{Name: "doceph-scaleout-128osd", ObjectBytes: 64 << 10, Threads: 2,
		ScaleOutPods: 16, OSDsPerPod: 8, Workload: "zipf", ReadPercent: 70, BalanceReads: true}
)

// scaleOutAt is a scale-out shape at a given kernel worker count. The name
// carries the worker suffix so BENCH_sim.json keeps one row per scale and
// perf.Guard can pin per-scale floors.
func scaleOutAt(shape Scenario, workers, durationSec int) Scenario {
	sc := shape
	sc.Name = fmt.Sprintf("%s@w%d", shape.Name, workers)
	sc.Mode = cluster.DoCeph
	sc.DurationSec = durationSec
	sc.WarmupSec = 1
	sc.Seed = 42
	sc.SimWorkers = workers
	return sc
}

// ScaleOutWorkerRows rebuilds the scale-out rows of a sweep for an explicit
// worker-count list (the simbench -sim-workers knob): every scenario whose
// ScaleOutPods is set is replaced by one copy per requested count, renamed
// with the matching @wN suffix. Non-scale-out rows pass through untouched.
func ScaleOutWorkerRows(sweep []Scenario, workers []int) []Scenario {
	out := make([]Scenario, 0, len(sweep))
	seen := make(map[string]bool)
	for _, sc := range sweep {
		if sc.ScaleOutPods <= 0 {
			out = append(out, sc)
			continue
		}
		base := scaleOutBase(sc.Name)
		if seen[base] {
			continue
		}
		seen[base] = true
		for _, w := range workers {
			row := sc
			row.SimWorkers = w
			row.Name = fmt.Sprintf("%s@w%d", base, w)
			out = append(out, row)
		}
	}
	return out
}

// ParseWorkerList parses a comma-separated list of kernel worker counts
// (the -sim-workers flag of simbench and docephbench). Every entry must be
// a positive integer; surrounding spaces are allowed.
func ParseWorkerList(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -sim-workers entry %q (want positive integers)", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// scaleOutBase strips the "@wN" worker suffix from a scenario name.
func scaleOutBase(name string) string {
	if i := strings.LastIndex(name, "@w"); i >= 0 {
		return name[:i]
	}
	return name
}

// SmokeSweep is the short variant wired into `make all`, derived from
// DefaultSweep: every row but the 4 MB ones, at most 8 clients and 2 s
// windows, and the scale-out shapes at 1 and 4 kernel workers with 1 s
// windows — enough to catch a gross perf or determinism regression fast.
func SmokeSweep() []Scenario {
	var out []Scenario
	for _, sc := range ScaleOutWorkerRows(DefaultSweep(), []int{1, 4}) {
		switch {
		case sc.ScaleOutPods > 0:
			sc.DurationSec = 1
		case sc.ObjectBytes == 4<<20:
			continue
		default:
			sc.Threads = min(sc.Threads, 8)
			sc.DurationSec = 2
		}
		out = append(out, sc)
	}
	return out
}

// Measurement is the outcome of one scenario.
type Measurement struct {
	Name string `json:"name"`

	// Simulated-side results (sanity only; bit-exactness is the golden
	// test's job).
	Ops       int64  `json:"ops"`
	SimEvents uint64 `json:"sim_events"`

	// Wall-clock-side results.
	WallNs       int64   `json:"wall_ns"`
	EventsPerSec float64 `json:"events_per_sec"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
}

// Report aggregates a sweep.
type Report struct {
	Scenarios []Measurement `json:"scenarios"`

	// Aggregates across the sweep: total events over total wall time, and
	// total allocations over total completed ops — the two numbers the
	// acceptance gate compares.
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	NsPerOp      float64 `json:"ns_per_op"`

	// Host fingerprints the machine the sweep ran on: rates recorded on
	// different hosts are not comparable. Guard ignores it.
	Host *Host `json:"host,omitempty"`
}

// Host identifies the measuring machine by what bounds simulator speed.
type Host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// ThisHost returns the fingerprint of the running process's host.
func ThisHost() *Host {
	return &Host{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// Validate rejects scenario shapes that would silently fall back to
// radosbench defaults or produce a meaningless measurement window. Perf
// numbers must come from the configured workload, not from defaulting.
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("perf: scenario has no name")
	}
	if sc.Threads <= 0 {
		return fmt.Errorf("perf: scenario %q: threads must be positive, got %d", sc.Name, sc.Threads)
	}
	if sc.ObjectBytes <= 0 {
		return fmt.Errorf("perf: scenario %q: object_bytes must be positive, got %d", sc.Name, sc.ObjectBytes)
	}
	if sc.DurationSec <= 0 {
		return fmt.Errorf("perf: scenario %q: duration_sec must be positive, got %d", sc.Name, sc.DurationSec)
	}
	if sc.WarmupSec < 0 {
		return fmt.Errorf("perf: scenario %q: warmup_sec must be non-negative, got %d", sc.Name, sc.WarmupSec)
	}
	if sc.DMAQueues < 0 || sc.OpShards < 0 || sc.MsgrLanes < 0 {
		return fmt.Errorf("perf: scenario %q: transport knobs must be non-negative", sc.Name)
	}
	if sc.ScaleOutPods < 0 || sc.OSDsPerPod < 0 || sc.SimWorkers < 0 {
		return fmt.Errorf("perf: scenario %q: scale-out knobs must be non-negative", sc.Name)
	}
	if sc.ScaleOutPods == 0 && (sc.OSDsPerPod > 0 || sc.SimWorkers > 0) {
		return fmt.Errorf("perf: scenario %q: osds_per_pod/sim_workers need scaleout_pods > 0", sc.Name)
	}
	if sc.ScaleOutPods > 0 && (sc.DMAQueues > 0 || sc.OpShards > 0 || sc.MsgrLanes > 0 || sc.Batch || sc.Degraded || sc.Stream) {
		return fmt.Errorf("perf: scenario %q: scale-out racks run the default transport; drop the transport/degraded/stream knobs", sc.Name)
	}
	if sc.Stream && sc.ObjectBytes <= 2<<20 {
		return fmt.Errorf("perf: scenario %q: streaming needs objects above one chunk (2MB), got %d bytes", sc.Name, sc.ObjectBytes)
	}
	switch sc.Op {
	case "", "write", "read", "mixed":
	default:
		return fmt.Errorf("perf: scenario %q: unknown op %q (want write, read or mixed)", sc.Name, sc.Op)
	}
	if sc.ReadPercent < 0 || sc.ReadPercent > 100 {
		return fmt.Errorf("perf: scenario %q: read_percent %d out of range", sc.Name, sc.ReadPercent)
	}
	if sc.ReadPercent > 0 && sc.Op != "mixed" && sc.ScaleOutPods == 0 {
		return fmt.Errorf("perf: scenario %q: read_percent needs op \"mixed\"", sc.Name)
	}
	if sc.ScaleOutPods > 0 && sc.Op != "" {
		return fmt.Errorf("perf: scenario %q: scale-out racks run the write workload; drop op", sc.Name)
	}
	if _, err := radosbench.ParsePopKind(sc.Workload); err != nil {
		return fmt.Errorf("perf: scenario %q: %v", sc.Name, err)
	}
	if (sc.Workload != "" || sc.BalanceReads) && sc.ScaleOutPods == 0 {
		return fmt.Errorf("perf: scenario %q: workload/balance_reads need scaleout_pods > 0", sc.Name)
	}
	return nil
}

// opPattern maps the scenario's op string onto the radosbench pattern.
func (sc Scenario) opPattern() radosbench.Op {
	switch sc.Op {
	case "read":
		return radosbench.Read
	case "mixed":
		return radosbench.Mixed
	default:
		return radosbench.Write
	}
}

// clusterConfig maps the scenario onto the cluster, including the
// multi-queue transport knobs.
func (sc Scenario) clusterConfig() cluster.Config {
	cfg := cluster.Config{Mode: sc.Mode, Seed: sc.Seed}
	cfg.Bridge.Engine.Queues = sc.DMAQueues
	cfg.Bridge.Batch.Enable = sc.Batch
	cfg.OSD.OpShards = sc.OpShards
	cfg.Messenger.Lanes = sc.MsgrLanes
	cfg.Messenger.Stream.Enable = sc.Stream
	if sc.Degraded {
		// Same shape the selfheal experiment defaults to: accept writes at
		// one replica, backfill two PGs at a time under a 64 MB/s bucket,
		// and back off when the foreground queue is four deep.
		cfg.MinSize = 1
		cfg.OSD.RecoveryMaxPGs = 2
		cfg.OSD.RecoveryBps = 64e6
		cfg.OSD.RecoveryBackoffDepth = 4
	}
	return cfg
}

// RunScenario builds a fresh cluster, runs the workload and measures the
// simulator's wall-clock cost. It is deliberately coarse (one GC fence
// before, ReadMemStats deltas around the run) — the point is trajectory
// tracking, not nanosecond benchmarking.
func RunScenario(sc Scenario) (Measurement, error) {
	if err := sc.Validate(); err != nil {
		return Measurement{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := runScenario(sc)
	runtime.ReadMemStats(&after)
	if err != nil {
		return Measurement{}, err
	}
	if m.Ops > 0 {
		m.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(m.Ops)
		m.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(m.Ops)
	}
	return m, nil
}

// runScenario is the measurement core without the allocation accounting:
// heap counters are process-global, so under the parallel sweep they are
// read once around the whole sweep instead of around each scenario.
func runScenario(sc Scenario) (Measurement, error) {
	if sc.ScaleOutPods > 0 {
		return runScaleOut(sc)
	}
	cl := cluster.New(sc.clusterConfig())
	defer cl.Shutdown()

	if sc.Degraded {
		// Take osd.1 down administratively at t=0 — the heartbeat grace
		// (5 s) would outlast the whole scenario — and rejoin it halfway
		// through the measured window so the tail runs real backfill under
		// the QoS knobs while the bench clients keep writing.
		rejoin := sim.Duration(sc.WarmupSec)*sim.Second +
			sim.Duration(sc.DurationSec)*sim.Second/2
		cl.Env.Spawn("degrade", func(p *sim.Proc) {
			cl.Nodes[1].OSD.Fail()
			cl.Mon.MarkDown(1)
			p.Wait(rejoin)
			cl.Nodes[1].OSD.Recover()
			cl.Mon.MarkUp(1)
		})
	}

	cfg := radosbench.Config{
		Threads:     sc.Threads,
		ObjectBytes: sc.ObjectBytes,
		Duration:    sim.Duration(sc.DurationSec) * sim.Second,
		Warmup:      sim.Duration(sc.WarmupSec) * sim.Second,
		Op:          sc.opPattern(),
		ReadPercent: sc.ReadPercent,
		OnWarmupEnd: cl.ResetHostStats,
	}
	start := time.Now()
	res, err := radosbench.Run(cl.Env, cl.Client, cfg)
	wall := time.Since(start)
	if err != nil {
		return Measurement{}, err
	}
	if sc.Degraded {
		// The measurement is only meaningful if the degraded machinery
		// actually ran — a regression that stopped it from engaging would
		// otherwise quietly benchmark the clean path under this name.
		var degraded, backfilled int64
		for _, n := range cl.Nodes {
			st := n.OSD.Stats()
			degraded += st.DegradedWrites
			backfilled += st.PGsBackfilled
		}
		if degraded == 0 || backfilled == 0 {
			return Measurement{}, fmt.Errorf(
				"perf: scenario %q: degraded path did not engage (degraded_writes=%d pgs_backfilled=%d)",
				sc.Name, degraded, backfilled)
		}
	}
	if sc.Stream {
		// Same guard for the streaming row: a regression that fell back to
		// store-and-forward would benchmark the monolithic path here.
		var streamed int64
		for _, n := range cl.Nodes {
			streamed += n.OSD.Stats().StreamWrites
		}
		if streamed == 0 {
			return Measurement{}, fmt.Errorf(
				"perf: scenario %q: streaming path did not engage (stream_writes=0)", sc.Name)
		}
	}
	m := Measurement{
		Name:      sc.Name,
		Ops:       res.Ops,
		SimEvents: cl.Env.Events(),
		WallNs:    wall.Nanoseconds(),
	}
	if wall > 0 {
		m.EventsPerSec = float64(m.SimEvents) / wall.Seconds()
	}
	if res.Ops > 0 {
		m.NsPerOp = float64(wall.Nanoseconds()) / float64(res.Ops)
	}
	return m, nil
}

// runScaleOut measures one partitioned scale-out cell. The simulated side
// (ops, events) is a pure function of the scenario minus SimWorkers; the
// wall-clock side is what the per-worker-count rows exist to compare.
func runScaleOut(sc Scenario) (Measurement, error) {
	kind, err := radosbench.ParsePopKind(sc.Workload)
	if err != nil {
		return Measurement{}, fmt.Errorf("perf: scenario %q: %v", sc.Name, err)
	}
	so := cluster.NewScaleOut(cluster.ScaleOutConfig{
		Pods:         sc.ScaleOutPods,
		OSDsPerPod:   sc.OSDsPerPod,
		Mode:         sc.Mode,
		Seed:         sc.Seed,
		Threads:      sc.Threads,
		ObjectBytes:  sc.ObjectBytes,
		ReadPercent:  sc.ReadPercent,
		Duration:     sim.Duration(sc.DurationSec) * sim.Second,
		Warmup:       sim.Duration(sc.WarmupSec) * sim.Second,
		Popularity:   radosbench.Popularity{Kind: kind},
		BalanceReads: sc.BalanceReads,
		// Popularity rows collect the imbalance arrays so the engagement
		// self-check below can prove the skewed path actually ran.
		CollectImbalance: kind != radosbench.PopNone,
	})
	defer so.Shutdown()
	start := time.Now()
	res, err := so.Run(sc.SimWorkers)
	wall := time.Since(start)
	if err != nil {
		return Measurement{}, err
	}
	if res.Delivered == 0 {
		// A scale-out row with no cross-partition traffic would be
		// benchmarking independent serial runs under a parallel-kernel name.
		return Measurement{}, fmt.Errorf("perf: scenario %q: no cross-partition messages delivered", sc.Name)
	}
	if kind != radosbench.PopNone {
		// Same guard for the skewed path: a regression that silently fell
		// back to the legacy stride would benchmark the wrong workload
		// under this row's name.
		im := ComputeImbalance(res)
		if im.MaxMeanOSDShare == 0 {
			return Measurement{}, fmt.Errorf("perf: scenario %q: no per-OSD ops collected", sc.Name)
		}
		if sc.BalanceReads && im.BalancedReadShare == 0 {
			return Measurement{}, fmt.Errorf("perf: scenario %q: balance-reads did not engage", sc.Name)
		}
	}
	m := Measurement{
		Name:      sc.Name,
		Ops:       res.TotalOps,
		SimEvents: res.Events,
		WallNs:    wall.Nanoseconds(),
	}
	if wall > 0 {
		m.EventsPerSec = float64(m.SimEvents) / wall.Seconds()
	}
	if res.TotalOps > 0 {
		m.NsPerOp = float64(wall.Nanoseconds()) / float64(res.TotalOps)
	}
	return m, nil
}

// RunSweep runs the sweep on one worker goroutine per spare core (capped at
// the scenario count) and aggregates. Results are returned in sweep order
// regardless of completion order, and the simulated numbers are identical
// to a serial run — each scenario is its own isolated simulation.
func RunSweep(sweep []Scenario) (Report, error) {
	return RunSweepWorkers(sweep, 0)
}

// RunSweepWorkers is RunSweep with an explicit worker count (0 means
// GOMAXPROCS). With one worker the sweep runs serially and per-scenario
// allocation counters are filled in; with more, per-scenario AllocsPerOp
// and BytesPerOp are left zero (heap counters are process-global and
// cannot be attributed across concurrent scenarios) and only the
// sweep-level aggregate is measured, from one counter delta around the
// whole sweep.
func RunSweepWorkers(sweep []Scenario, workers int) (Report, error) {
	var rep Report
	for _, sc := range sweep {
		if err := sc.Validate(); err != nil {
			return rep, err
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sweep) {
		workers = len(sweep)
	}

	measurements := make([]Measurement, len(sweep))
	errs := make([]error, len(sweep))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if workers <= 1 {
		for i, sc := range sweep {
			// Serial sweep: the counter delta around each scenario is
			// attributable to it alone.
			var b, a runtime.MemStats
			runtime.ReadMemStats(&b)
			measurements[i], errs[i] = runScenario(sc)
			runtime.ReadMemStats(&a)
			if ops := measurements[i].Ops; errs[i] == nil && ops > 0 {
				measurements[i].AllocsPerOp = float64(a.Mallocs-b.Mallocs) / float64(ops)
				measurements[i].BytesPerOp = float64(a.TotalAlloc-b.TotalAlloc) / float64(ops)
			}
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(sweep) {
						return
					}
					measurements[i], errs[i] = runScenario(sweep[i])
				}
			}()
		}
		wg.Wait()
	}
	runtime.ReadMemStats(&after)

	var totalEvents uint64
	var totalWallNs, totalOps int64
	for i, m := range measurements {
		if errs[i] != nil {
			return rep, errs[i]
		}
		totalEvents += m.SimEvents
		totalWallNs += m.WallNs
		totalOps += m.Ops
	}
	rep.Scenarios = measurements
	rep.Host = ThisHost()
	if totalWallNs > 0 {
		rep.EventsPerSec = float64(totalEvents) / (float64(totalWallNs) / 1e9)
	}
	if totalOps > 0 {
		if workers <= 1 {
			// Keep the serial aggregate the exact op-weighted mean of the
			// per-scenario rows.
			var totalAllocs float64
			for _, m := range measurements {
				totalAllocs += m.AllocsPerOp * float64(m.Ops)
			}
			rep.AllocsPerOp = totalAllocs / float64(totalOps)
		} else {
			rep.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(totalOps)
		}
		rep.NsPerOp = float64(totalWallNs) / float64(totalOps)
	}
	return rep, nil
}
