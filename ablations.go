package doceph

import (
	"fmt"

	"doceph/internal/report"
)

// AblationResult is one row of the design-choice ablation study: what each
// of DoCeph's §3.3/§4 mechanisms buys.
type AblationResult struct {
	Name         string
	SizeBytes    int64
	AvgLatency   Duration
	IOPS         float64
	HostUtil     float64
	Negotiations int64
	FallbackSegs int64
	DMAErrors    int64
	BatchedTxns  int64
	BatchFlushes int64
}

// RunAblations measures DoCeph with individual mechanisms disabled or
// stressed: pipelining off, MR cache off, smaller staging buffers, extra
// DMA channels, and injected DMA failures exercising the fallback/cooldown
// machinery. Pipeline/MR/staging variants run at 16 MB (where segmentation
// matters); channel variants at 1 MB (where the single engine is the
// bottleneck, Figure 10's -30%).
func RunAblations(opts ExpOptions) ([]AblationResult, error) {
	opts = opts.withDefaults()

	type variant struct {
		name   string
		size   int64
		mut    func(*ClusterConfig)
		inject int64 // engine FailEvery
	}
	const big, small, tiny = int64(16 << 20), int64(1 << 20), int64(64 << 10)
	variants := []variant{
		{name: "doceph (full design)", size: big},
		{name: "no pipelining", size: big, mut: func(c *ClusterConfig) {
			c.Bridge.Proxy.DisablePipeline = true
		}},
		{name: "no MR cache", size: big, mut: func(c *ClusterConfig) {
			c.Bridge.Proxy.DisableMRCache = true
		}},
		{name: "1MB staging buffers", size: big, mut: func(c *ClusterConfig) {
			c.DPU.StagingBufferBytes = 1 << 20
		}},
		{name: "512KB staging buffers", size: big, mut: func(c *ClusterConfig) {
			c.DPU.StagingBufferBytes = 512 << 10
		}},
		{name: "DMA failure every 200 transfers", size: big, inject: 200},
		{name: "1MB writes, 1 DMA channel", size: small},
		{name: "1MB writes, 2 DMA channels", size: small, mut: func(c *ClusterConfig) {
			c.Bridge.Engine.Channels = 2
		}},
		{name: "1MB writes, 4 DMA channels", size: small, mut: func(c *ClusterConfig) {
			c.Bridge.Engine.Channels = 4
		}},
		{name: "1MB writes, DPU compression (2:1)", size: small, mut: func(c *ClusterConfig) {
			c.Bridge.Proxy.EnableCompression = true
		}},
		// Batching variants at 64 KB, where per-op DMA setup dominates and
		// coalescing pays the most.
		{name: "64KB writes, no batching", size: tiny},
		{name: "64KB writes, adaptive batching", size: tiny, mut: func(c *ClusterConfig) {
			c.Bridge.Batch.Enable = true
		}},
		{name: "64KB writes, delay-only batching", size: tiny, mut: func(c *ClusterConfig) {
			// Disable the idle heuristic by making the idle gap equal the
			// max-delay budget: flushes come only from bytes or the timer.
			c.Bridge.Batch.Enable = true
			c.Bridge.Batch.IdleDelay = 400 * Microsecond
			c.Bridge.Batch.MaxDelay = 400 * Microsecond
		}},
		{name: "64KB writes, batching + DMA failure every 200", size: tiny, inject: 200, mut: func(c *ClusterConfig) {
			c.Bridge.Batch.Enable = true
		}},
	}

	arms := make([]arm, len(variants))
	for i, v := range variants {
		arms[i] = arm{name: fmt.Sprintf("ablation %q", v.name), cfg: ClusterConfig{Mode: DoCeph},
			bench: BenchConfig{ObjectBytes: v.size}, failEvery: v.inject}
		if v.mut != nil {
			v.mut(&arms[i].cfg)
		}
	}
	rs, err := runArms(opts, arms)
	if err != nil {
		return nil, err
	}
	out := make([]AblationResult, len(variants))
	for i, r := range rs {
		out[i] = AblationResult{
			Name:         variants[i].name,
			SizeBytes:    variants[i].size,
			AvgLatency:   r.bench.AvgLatency,
			IOPS:         r.bench.IOPS(),
			HostUtil:     r.hostUtil,
			Negotiations: r.negotiations,
			FallbackSegs: r.fallbacks,
			DMAErrors:    r.dmaErrors,
			BatchedTxns:  r.batchedTxns,
			BatchFlushes: r.batchFlushes,
		}
	}
	return out, nil
}

// AblationTable renders the ablation study.
func AblationTable(rows []AblationResult) *report.Table {
	t := &report.Table{
		Title:  "Ablations: DoCeph design choices",
		Header: []string{"variant", "size", "avg lat (s)", "IOPS", "host CPU", "negotiations", "fallbacks", "DMA errors", "batched txns", "flushes"},
	}
	for _, r := range rows {
		size := report.MB(r.SizeBytes)
		if r.SizeBytes < 1<<20 {
			size = report.KB(r.SizeBytes)
		}
		t.AddRow(r.Name, size, report.F3(r.AvgLatency.Seconds()), report.F2(r.IOPS),
			report.Pct(r.HostUtil), fmt.Sprint(r.Negotiations),
			fmt.Sprint(r.FallbackSegs), fmt.Sprint(r.DMAErrors),
			fmt.Sprint(r.BatchedTxns), fmt.Sprint(r.BatchFlushes))
	}
	t.AddNote("pipelining and MR caching are the paper's §3.3 optimizations; fallback rows exercise §4")
	return t
}
