package doceph

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"doceph/internal/bluestore"
	"doceph/internal/core"
	"doceph/internal/messenger"
	"doceph/internal/osd"
	"doceph/internal/report"
	"doceph/internal/sim"
	"doceph/internal/trace"
)

// ExpOptions shapes every experiment: the measured window, the warmup
// before it, the closed-loop client count and the seed. The paper uses 60 s
// runs; Quick options keep CI fast while preserving the shapes. Fault
// experiments ignore Warmup: their throughput series covers the whole run.
type ExpOptions struct {
	Duration Duration
	Warmup   Duration
	Threads  int
	Seed     int64
}

// FullOptions mirrors the paper's methodology (60 s runs, 16 clients).
func FullOptions() ExpOptions {
	return ExpOptions{Duration: 60 * Second, Warmup: 5 * Second, Threads: 16, Seed: 42}
}

// QuickOptions is a fast variant for tests and `go test -bench`.
func QuickOptions() ExpOptions {
	return ExpOptions{Duration: 8 * Second, Warmup: 2 * Second, Threads: 16, Seed: 42}
}

func (o ExpOptions) withDefaults() ExpOptions {
	d := FullOptions()
	if o.Duration == 0 {
		o.Duration = d.Duration
	}
	if o.Warmup == 0 {
		o.Warmup = d.Warmup
	}
	if o.Threads == 0 {
		o.Threads = d.Threads
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	return o
}

// arm is one cell of a two-node experiment: a cluster and the workload run
// on it. runArms fills the seed, the window and (when zero) the client
// count from the experiment's options.
type arm struct {
	name  string // error context
	cfg   ClusterConfig
	bench BenchConfig
	// failEvery > 0 makes every node's upstream DMA engine fail each
	// failEvery-th transfer, set on the built cluster (an engine field, not
	// a config knob).
	failEvery int64
}

// runResult is everything one arm yields: the union of the counters the
// experiments read, so every arm is scraped the same way.
type runResult struct {
	bench     BenchResult
	hostUtil  float64 // single-core normalization (Fig. 5 right axis)
	dpuUtil   float64 // DPU ARM, single-core normalization (zero on Baseline)
	msgrShare float64
	objShare  float64
	osdShare  float64
	msgrSw    int64
	objSw     int64
	breakdown core.Breakdown
	// balancedReads counts reads the client sent to a non-primary replica.
	balancedReads int64
	// streamWrites sums the OSDs' streamed client writes.
	streamWrites int64
	// DPU data-path counters, summed over nodes (zero on Baseline):
	// batching, control-channel negotiations, host-path fallbacks (segments
	// plus whole transactions), upstream DMA errors and read-cache lookups.
	batchedTxns  int64
	batchFlushes int64
	negotiations int64
	fallbacks    int64
	dmaErrors    int64
	cacheHits    int64
	cacheMisses  int64
	// peakStaging is the max per-node DPU staging high-water mark.
	peakStaging int64
	// Upstream DMA engine accounting (zero on Baseline): engBusy is the
	// total queue service time, engQueues the per-node queue count, engNodes
	// the number of bridges — together they give the engine occupancy over
	// a run window.
	engBusy   sim.Duration
	engQueues int
	engNodes  int
	// Traced arms only (cfg.Trace): the measured window's finished spans
	// and each processor's accounted busy time over it.
	spans []TraceSpan
	busy  map[string]Duration
}

// engineOccupancy is the fraction of total queue capacity the upstream
// engines spent servicing transfers over window.
func (r runResult) engineOccupancy(window sim.Duration) float64 {
	den := float64(r.engQueues) * float64(r.engNodes) * float64(window)
	if den <= 0 {
		return 0
	}
	return float64(r.engBusy) / den
}

// runArms runs every arm on its own fresh cluster, in parallel, and returns
// the results in arm order.
func runArms(opts ExpOptions, arms []arm) ([]runResult, error) {
	out := make([]runResult, len(arms))
	err := runParallel(len(arms), func(i int) error {
		r, err := runArm(opts, arms[i])
		if err != nil {
			return fmt.Errorf("%s: %w", arms[i].name, err)
		}
		out[i] = r
		return nil
	})
	return out, err
}

// runArm builds a's cluster, runs its benchmark and scrapes every counter.
// A traced arm must also pass the span-nesting and CPU-conservation checks.
func runArm(opts ExpOptions, a arm) (runResult, error) {
	cfg := a.cfg
	cfg.Seed = opts.Seed
	cl := NewCluster(cfg)
	defer cl.Shutdown()
	if a.failEvery > 0 {
		for _, n := range cl.Nodes {
			n.Bridge.EngUp.FailEvery = a.failEvery
		}
	}
	op := a.bench
	if op.Threads == 0 {
		op.Threads = opts.Threads
	}
	op.Duration, op.Warmup = opts.Duration, opts.Warmup
	bench, err := RunBench(cl, op)
	if err != nil {
		return runResult{}, err
	}
	m := cl.HostCPUMerged()
	r := runResult{
		bench:         bench,
		hostUtil:      m.SingleCoreUtilization(),
		dpuUtil:       cl.DPUCPUMerged().SingleCoreUtilization(),
		msgrShare:     m.ShareOf(messenger.ThreadCat),
		objShare:      m.ShareOf(bluestore.ThreadCat),
		osdShare:      m.ShareOf(osd.ThreadCat),
		msgrSw:        m.SwitchesByCat[messenger.ThreadCat],
		objSw:         m.SwitchesByCat[bluestore.ThreadCat],
		breakdown:     cl.ProxyBreakdownMerged(),
		balancedReads: cl.Client.Stats().BalancedReads,
	}
	for _, n := range cl.Nodes {
		r.streamWrites += n.OSD.Stats().StreamWrites
		if n.Bridge == nil {
			continue
		}
		st := n.Bridge.Proxy.Stats()
		r.batchedTxns += st.BatchedTxns
		r.batchFlushes += st.BatchFlushes
		r.negotiations += n.Bridge.CC.Negotiations()
		r.fallbacks += st.FallbackSegments + st.FallbackTxns
		r.cacheHits += st.ReadCacheHits
		r.cacheMisses += st.ReadCacheMisses
		r.peakStaging = max(r.peakStaging, st.PeakStagingBytes)
		eng := n.Bridge.EngUp.Stats()
		r.dmaErrors += eng.Errors
		r.engBusy += eng.Busy
		r.engQueues = n.Bridge.EngUp.NumQueues()
		r.engNodes++
	}
	if cfg.Trace {
		r.spans = cl.Tracer.Spans()
		r.busy = map[string]Duration{cl.ClientCPU.Name(): cl.ClientCPU.Stats().TotalBusy}
		for _, n := range cl.Nodes {
			r.busy[n.HostCPU.Name()] = n.HostCPU.Stats().TotalBusy
			if n.DPU != nil {
				r.busy[n.DPU.CPU.Name()] = n.DPU.CPU.Stats().TotalBusy
			}
		}
		if err := trace.CheckInvariants(r.spans); err != nil {
			return runResult{}, fmt.Errorf("trace invariants: %w", err)
		}
		if err := trace.CheckCPUConservation(r.spans, r.busy); err != nil {
			return runResult{}, fmt.Errorf("trace cpu conservation: %w", err)
		}
	}
	return r, nil
}

// deploymentArms returns a Baseline and a DoCeph arm per size, in that
// order, on otherwise identical clusters and workloads.
func deploymentArms(what string, sizes []int64, cfg ClusterConfig, bench BenchConfig) []arm {
	arms := make([]arm, 0, 2*len(sizes))
	for _, size := range sizes {
		for _, mode := range []Mode{Baseline, DoCeph} {
			a := arm{name: fmt.Sprintf("%s %v %s", what, mode, report.MB(size)), cfg: cfg, bench: bench}
			a.cfg.Mode = mode
			a.bench.ObjectBytes = size
			arms = append(arms, a)
		}
	}
	return arms
}

// runParallel executes n independent simulation cells on up to GOMAXPROCS
// OS goroutines. Every cell builds its own cluster (its own sim.Env and
// seeded RNG), so results are bit-identical to the sequential order no
// matter how the host scheduler interleaves them; callers store results by
// index, keeping output ordering deterministic. The lowest-index error is
// returned so failure reporting is deterministic too.
func runParallel(n int, cell func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = cell(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Figure 5 + Figure 6 + Table 2: baseline messenger profile at 1G vs 100G.

// LinkProfile is one bar group of Figure 5 plus the matching Figure 6 and
// Table 2 columns.
type LinkProfile struct {
	LinkName       string
	MsgrShare      float64
	ObjShare       float64
	OSDShare       float64
	SingleCoreUtil float64
	ThroughputMBps float64
	MsgrSwitches   int64
	ObjSwitches    int64
}

// MessengerProfileResult holds both link configurations.
type MessengerProfileResult struct {
	OneG     LinkProfile
	HundredG LinkProfile
}

// RunMessengerProfile reproduces the §5.2 methodology: baseline cluster,
// 4 MB writes, 1 Gbps vs 100 Gbps, measuring per-component CPU shares
// (Fig. 5), throughput (Fig. 6) and context switches (Table 2).
func RunMessengerProfile(opts ExpOptions) (MessengerProfileResult, error) {
	opts = opts.withDefaults()
	links := []struct {
		name string
		bps  float64
	}{{"1Gbps", Link1G}, {"100Gbps", Link100G}}
	arms := make([]arm, len(links))
	for i, l := range links {
		arms[i] = arm{name: "profile " + l.name, cfg: ClusterConfig{LinkBytesPerSec: l.bps},
			bench: BenchConfig{ObjectBytes: 4 << 20}}
	}
	rs, err := runArms(opts, arms)
	if err != nil {
		return MessengerProfileResult{}, err
	}
	profile := func(i int) LinkProfile {
		r := rs[i]
		return LinkProfile{
			LinkName:       links[i].name,
			MsgrShare:      r.msgrShare,
			ObjShare:       r.objShare,
			OSDShare:       r.osdShare,
			SingleCoreUtil: r.hostUtil,
			ThroughputMBps: r.bench.ThroughputBps() / 1e6,
			MsgrSwitches:   r.msgrSw,
			ObjSwitches:    r.objSw,
		}
	}
	return MessengerProfileResult{OneG: profile(0), HundredG: profile(1)}, nil
}

// Fig5Table renders the CPU-share breakdown (paper: messenger ~81%/82.5%,
// total 24% -> 70% of one core).
func (r MessengerProfileResult) Fig5Table() *report.Table {
	t := &report.Table{
		Title:  "Figure 5: CPU usage breakdown by component (Baseline, 4MB writes)",
		Header: []string{"link", "Messenger", "ObjectStore", "OSD threads", "total Ceph CPU (1-core norm)"},
	}
	for _, p := range []LinkProfile{r.OneG, r.HundredG} {
		t.AddRow(p.LinkName, report.Pct(p.MsgrShare), report.Pct(p.ObjShare),
			report.Pct(p.OSDShare), report.Pct(p.SingleCoreUtil))
	}
	t.AddNote("paper: Messenger 81.05%% (1G) / 82.48%% (100G); total 24%% -> 70.08%%")
	return t
}

// Fig6Table renders throughput under both links.
func (r MessengerProfileResult) Fig6Table() *report.Table {
	t := &report.Table{
		Title:  "Figure 6: Throughput under 1Gbps vs 100Gbps (Baseline, 4MB writes)",
		Header: []string{"link", "throughput MB/s"},
	}
	for _, p := range []LinkProfile{r.OneG, r.HundredG} {
		t.AddRow(p.LinkName, report.F2(p.ThroughputMBps))
	}
	t.AddNote("paper shape: 1G link-bound (~110 MB/s), 100G disk-bound (~470 MB/s)")
	return t
}

// Table2 renders the context-switch comparison (paper: 7475 vs 751, 9.95x).
func (r MessengerProfileResult) Table2() *report.Table {
	t := &report.Table{
		Title:  "Table 2: Context switches, Messenger vs ObjectStore (Baseline, 100Gbps)",
		Header: []string{"component", "context switches", "ratio"},
	}
	p := r.HundredG
	ratio := 0.0
	if p.ObjSwitches > 0 {
		ratio = float64(p.MsgrSwitches) / float64(p.ObjSwitches)
	}
	t.AddRow("Messenger", fmt.Sprint(p.MsgrSwitches), report.F2(ratio)+"x")
	t.AddRow("ObjectStore", fmt.Sprint(p.ObjSwitches), "1x")
	t.AddNote("paper: 7475 vs 751 (9.95x)")
	return t
}

// ---------------------------------------------------------------------------
// Figures 7, 8, 10 and Table 3 / Figure 9: baseline vs DoCeph size sweep.

// BreakdownRow is Table 3's per-size phase decomposition.
type BreakdownRow struct {
	HostWrite sim.Duration
	DMA       sim.Duration
	DMAWait   sim.Duration
	Others    sim.Duration
	Total     sim.Duration
}

// SizeComparison is one request-size column of Figures 7/8/10.
type SizeComparison struct {
	SizeBytes    int64
	BaselineUtil float64
	DoCephUtil   float64
	SavingPct    float64
	BaselineLat  sim.Duration
	DoCephLat    sim.Duration
	BaselineIOPS float64
	DoCephIOPS   float64
	Breakdown    BreakdownRow
}

// PaperSizes are the request sizes of §5.1.
var PaperSizes = []int64{1 << 20, 4 << 20, 8 << 20, 16 << 20}

// RunSizeSweep reproduces the §5.3/§5.4 comparison across request sizes for
// both deployments.
func RunSizeSweep(opts ExpOptions, sizes []int64) ([]SizeComparison, error) {
	opts = opts.withDefaults()
	if len(sizes) == 0 {
		sizes = PaperSizes
	}
	cells, err := runArms(opts, deploymentArms("write", sizes, ClusterConfig{}, BenchConfig{}))
	if err != nil {
		return nil, err
	}
	var out []SizeComparison
	for si, size := range sizes {
		base, dc := cells[2*si], cells[2*si+1]
		sc := SizeComparison{
			SizeBytes:    size,
			BaselineUtil: base.hostUtil,
			DoCephUtil:   dc.hostUtil,
			BaselineLat:  base.bench.AvgLatency,
			DoCephLat:    dc.bench.AvgLatency,
			BaselineIOPS: base.bench.IOPS(),
			DoCephIOPS:   dc.bench.IOPS(),
		}
		if sc.BaselineUtil > 0 {
			sc.SavingPct = (1 - sc.DoCephUtil/sc.BaselineUtil) * 100
		}
		hw, dma, wait := dc.breakdown.Avg()
		total := dc.bench.AvgLatency
		others := total - hw - dma - wait
		if others < 0 {
			others = 0
		}
		sc.Breakdown = BreakdownRow{HostWrite: hw, DMA: dma, DMAWait: wait,
			Others: others, Total: total}
		out = append(out, sc)
	}
	return out, nil
}

// Fig7Table renders host CPU utilization per size (paper: 94.2/70.1/68.9/
// 67.2% baseline vs 5.5/5.75/5.53/5.39% DoCeph).
func Fig7Table(rows []SizeComparison) *report.Table {
	t := &report.Table{
		Title:  "Figure 7: Host CPU usage, Baseline vs DoCeph (1-core norm)",
		Header: []string{"size", "Baseline", "DoCeph", "saving"},
	}
	for _, r := range rows {
		t.AddRow(report.MB(r.SizeBytes), report.Pct(r.BaselineUtil),
			report.Pct(r.DoCephUtil), fmt.Sprintf("%.1f%%", r.SavingPct))
	}
	t.AddNote("paper: baseline 94.2->67.2%%, DoCeph flat 5.4-5.8%%, savings 91.8-94.2%%")
	return t
}

// Fig8Table renders average latency per size.
func Fig8Table(rows []SizeComparison) *report.Table {
	t := &report.Table{
		Title:  "Figure 8: Average write latency (s), Baseline vs DoCeph",
		Header: []string{"size", "Baseline", "DoCeph", "overhead"},
	}
	for _, r := range rows {
		over := 0.0
		if r.BaselineLat > 0 {
			over = (r.DoCephLat.Seconds()/r.BaselineLat.Seconds() - 1) * 100
		}
		t.AddRow(report.MB(r.SizeBytes), report.F3(r.BaselineLat.Seconds()),
			report.F3(r.DoCephLat.Seconds()), fmt.Sprintf("+%.0f%%", over))
	}
	t.AddNote("paper: 0.03 vs 0.05 s at 1MB (+67%%) narrowing to 0.54 vs 0.57 s at 16MB (+6%%)")
	return t
}

// Table3 renders DoCeph's latency decomposition.
func Table3(rows []SizeComparison) *report.Table {
	t := &report.Table{
		Title:  "Table 3: DoCeph average latency breakdown (s)",
		Header: []string{"phase", "1MB", "4MB", "8MB", "16MB"},
	}
	get := func(f func(BreakdownRow) sim.Duration) []string {
		cells := make([]string, 0, len(rows))
		for _, r := range rows {
			cells = append(cells, report.F4(f(r.Breakdown).Seconds()))
		}
		return cells
	}
	t.AddRow(append([]string{"Host write"}, get(func(b BreakdownRow) sim.Duration { return b.HostWrite })...)...)
	t.AddRow(append([]string{"DMA"}, get(func(b BreakdownRow) sim.Duration { return b.DMA })...)...)
	t.AddRow(append([]string{"DMA-wait"}, get(func(b BreakdownRow) sim.Duration { return b.DMAWait })...)...)
	t.AddRow(append([]string{"Others"}, get(func(b BreakdownRow) sim.Duration { return b.Others })...)...)
	t.AddRow(append([]string{"Total Avg.Latency"}, get(func(b BreakdownRow) sim.Duration { return b.Total })...)...)
	t.AddNote("paper totals: 0.05 / 0.14 / 0.30 / 0.57 s; DMA-wait share 44.8%% -> 11.9%%")
	return t
}

// Fig9Table renders the normalized breakdown.
func Fig9Table(rows []SizeComparison) *report.Table {
	t := &report.Table{
		Title:  "Figure 9: Normalized latency breakdown (share of total)",
		Header: []string{"size", "Host write", "DMA", "DMA-wait", "Others"},
	}
	for _, r := range rows {
		b := r.Breakdown
		tot := b.Total.Seconds()
		if tot <= 0 {
			continue
		}
		t.AddRow(report.MB(r.SizeBytes),
			report.Pct(b.HostWrite.Seconds()/tot),
			report.Pct(b.DMA.Seconds()/tot),
			report.Pct(b.DMAWait.Seconds()/tot),
			report.Pct(b.Others.Seconds()/tot))
	}
	t.AddNote("paper: DMA-wait falls from 44.8%% at 1MB to 11.9%% at 16MB (pipelining)")
	return t
}

// Fig10Table renders IOPS per size.
func Fig10Table(rows []SizeComparison) *report.Table {
	t := &report.Table{
		Title:  "Figure 10: Average throughput (IOPS), Baseline vs DoCeph",
		Header: []string{"size", "Baseline", "DoCeph", "gap"},
	}
	for _, r := range rows {
		gap := 0.0
		if r.BaselineIOPS > 0 {
			gap = (1 - r.DoCephIOPS/r.BaselineIOPS) * 100
		}
		t.AddRow(report.MB(r.SizeBytes), report.F2(r.BaselineIOPS),
			report.F2(r.DoCephIOPS), fmt.Sprintf("-%.0f%%", gap))
	}
	t.AddNote("paper: 435/304 at 1MB (-30%%) narrowing to 28/27 at 16MB (-4%%)")
	return t
}

// ---------------------------------------------------------------------------
// Extension: small-op IOPS sweep with adaptive batching (Figure 10's gap at
// the small end, and what coalescing DMA setup buys back).

// SmallOpComparison is one request-size row of the small-op sweep: Baseline
// against DoCeph with batching off and on.
type SmallOpComparison struct {
	SizeBytes    int64
	BaselineIOPS float64
	DoCephIOPS   float64 // batching off
	BatchedIOPS  float64 // batching on
	BatchGainPct float64 // batched vs unbatched DoCeph
	BaselineUtil float64
	DoCephUtil   float64
	BatchedUtil  float64
	BatchedTxns  int64
	BatchFlushes int64
	AvgBatchSize float64
	BaselineLat  sim.Duration
	DoCephLat    sim.Duration
	BatchedLat   sim.Duration
}

// SmallOpSizes are the request sizes of the small-op sweep, below the
// paper's 1 MB floor where per-op DMA setup dominates.
var SmallOpSizes = []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10}

// RunSmallOpsSweep measures IOPS for small requests under three arms:
// Baseline, DoCeph with per-op DMA (the Figure 10 regime, where ~1.6 ms of
// setup per transfer caps small-op IOPS), and DoCeph with adaptive batching
// (default knobs), which amortizes one setup across a frame of coalesced ops.
func RunSmallOpsSweep(opts ExpOptions, sizes []int64) ([]SmallOpComparison, error) {
	opts = opts.withDefaults()
	if len(sizes) == 0 {
		sizes = SmallOpSizes
	}
	// Three arms per size: Baseline, DoCeph, DoCeph with batching.
	batching := ClusterConfig{Mode: DoCeph}
	batching.Bridge.Batch.Enable = true
	arms := make([]arm, 0, 3*len(sizes))
	for _, size := range sizes {
		bench := BenchConfig{ObjectBytes: size}
		arms = append(arms,
			arm{name: "smallops baseline " + report.KB(size), bench: bench},
			arm{name: "smallops doceph " + report.KB(size), cfg: ClusterConfig{Mode: DoCeph}, bench: bench},
			arm{name: "smallops batched " + report.KB(size), cfg: batching, bench: bench})
	}
	cells, err := runArms(opts, arms)
	if err != nil {
		return nil, err
	}
	var out []SmallOpComparison
	for si, size := range sizes {
		base, plain, batched := cells[3*si], cells[3*si+1], cells[3*si+2]
		sc := SmallOpComparison{
			SizeBytes:    size,
			BaselineIOPS: base.bench.IOPS(),
			DoCephIOPS:   plain.bench.IOPS(),
			BatchedIOPS:  batched.bench.IOPS(),
			BaselineUtil: base.hostUtil,
			DoCephUtil:   plain.hostUtil,
			BatchedUtil:  batched.hostUtil,
			BatchedTxns:  batched.batchedTxns,
			BatchFlushes: batched.batchFlushes,
			BaselineLat:  base.bench.AvgLatency,
			DoCephLat:    plain.bench.AvgLatency,
			BatchedLat:   batched.bench.AvgLatency,
		}
		if sc.DoCephIOPS > 0 {
			sc.BatchGainPct = (sc.BatchedIOPS/sc.DoCephIOPS - 1) * 100
		}
		if sc.BatchFlushes > 0 {
			sc.AvgBatchSize = float64(sc.BatchedTxns) / float64(sc.BatchFlushes)
		}
		out = append(out, sc)
	}
	return out, nil
}

// SmallOpsTable renders the small-op sweep.
func SmallOpsTable(rows []SmallOpComparison) *report.Table {
	t := &report.Table{
		Title: "Small-op sweep: IOPS, Baseline vs DoCeph vs DoCeph+batching",
		Header: []string{"size", "Baseline IOPS", "DoCeph IOPS", "batched IOPS",
			"batch gain", "avg batch", "Baseline CPU", "DoCeph CPU", "batched CPU"},
	}
	for _, r := range rows {
		t.AddRow(report.KB(r.SizeBytes), report.F2(r.BaselineIOPS),
			report.F2(r.DoCephIOPS), report.F2(r.BatchedIOPS),
			fmt.Sprintf("%+.0f%%", r.BatchGainPct), report.F2(r.AvgBatchSize),
			report.Pct(r.BaselineUtil), report.Pct(r.DoCephUtil),
			report.Pct(r.BatchedUtil))
	}
	t.AddNote("per-op DMA setup (~1.6ms) caps unbatched DoCeph IOPS at small sizes (Fig. 10 gap); batching amortizes one setup+doorbell across a coalesced frame")
	return t
}

// ---------------------------------------------------------------------------
// Extension: read path (§5.5, the paper's future work).

// ReadComparison is one row of the read-path extension experiment.
type ReadComparison struct {
	SizeBytes    int64
	BaselineLat  sim.Duration
	DoCephLat    sim.Duration
	BaselineIOPS float64
	DoCephIOPS   float64
}

// RunReadSweep measures the symmetric read path against the baseline.
func RunReadSweep(opts ExpOptions, sizes []int64) ([]ReadComparison, error) {
	opts = opts.withDefaults()
	if len(sizes) == 0 {
		sizes = PaperSizes
	}
	read := BenchConfig{Op: ReadWorkload, PrepopulateObjects: opts.Threads * 4}
	cells, err := runArms(opts, deploymentArms("read", sizes, ClusterConfig{}, read))
	if err != nil {
		return nil, err
	}
	var out []ReadComparison
	for si, size := range sizes {
		base, dc := cells[2*si], cells[2*si+1]
		out = append(out, ReadComparison{
			SizeBytes:    size,
			BaselineLat:  base.bench.AvgLatency,
			DoCephLat:    dc.bench.AvgLatency,
			BaselineIOPS: base.bench.IOPS(),
			DoCephIOPS:   dc.bench.IOPS(),
		})
	}
	return out, nil
}

// ReadTable renders the read extension results.
func ReadTable(rows []ReadComparison) *report.Table {
	t := &report.Table{
		Title:  "Extension (paper §5.5): Read path, Baseline vs DoCeph",
		Header: []string{"size", "Baseline lat (s)", "DoCeph lat (s)", "Baseline IOPS", "DoCeph IOPS"},
	}
	for _, r := range rows {
		t.AddRow(report.MB(r.SizeBytes),
			report.F3(r.BaselineLat.Seconds()), report.F3(r.DoCephLat.Seconds()),
			report.F2(r.BaselineIOPS), report.F2(r.DoCephIOPS))
	}
	t.AddNote("paper predicts convergence at large sizes; reads avoid replication coordination")
	return t
}
