package doceph

import (
	"fmt"

	"doceph/internal/report"
)

// ---------------------------------------------------------------------------
// Extension: multi-queue DMA engine ablation. PR 4's gap analysis concluded
// the residual small-op gap "needs engine parallelism, not more batching":
// one serial engine caps frame throughput at ~1/setup-time regardless of
// frame size. This sweep measures batched DoCeph with 1/2/4/8 DMA queues
// (and a matching number of OSD op-queue shards) across the small-op sizes.

// MultiQueueCell is one (size x queues) cell of the multi-queue ablation.
type MultiQueueCell struct {
	SizeBytes int64
	Queues    int
	IOPS      float64
	// GainPct is the IOPS gain versus the 1-queue cell at the same size.
	GainPct      float64
	AvgLat       Duration
	HostUtil     float64
	AvgBatchSize float64
	// Occupancy is the fraction of aggregate queue capacity the upstream
	// engines spent servicing transfers (EngineStats.Busy over the run).
	Occupancy float64
}

// MultiQueueCounts is the default queue sweep of the ablation.
var MultiQueueCounts = []int{1, 2, 4, 8}

// MultiQueueSizes are the default request sizes: the small-op regime where
// the serial engine is the binding constraint.
var MultiQueueSizes = []int64{4 << 10, 16 << 10, 64 << 10}

// RunMultiQueueSweep measures batched DoCeph at every (size x queues)
// combination, pairing each queue count with the same number of OSD op
// shards and messenger lanes. All cells run as independent parallel
// simulations.
func RunMultiQueueSweep(opts ExpOptions, queues []int, sizes []int64) ([]MultiQueueCell, error) {
	opts = opts.withDefaults()
	if len(queues) == 0 {
		queues = MultiQueueCounts
	}
	if len(sizes) == 0 {
		sizes = MultiQueueSizes
	}
	arms := make([]arm, 0, len(sizes)*len(queues))
	for _, size := range sizes {
		for _, nq := range queues {
			a := arm{name: fmt.Sprintf("mq %dKB q=%d", size>>10, nq),
				cfg: ClusterConfig{Mode: DoCeph}, bench: BenchConfig{ObjectBytes: size}}
			a.cfg.Bridge.Batch.Enable = true
			a.cfg.Bridge.Engine.Queues = nq
			a.cfg.OSD.OpShards = nq
			a.cfg.Messenger.Lanes = nq
			arms = append(arms, a)
		}
	}
	rs, err := runArms(opts, arms)
	if err != nil {
		return nil, err
	}
	out := make([]MultiQueueCell, len(rs))
	for i, r := range rs {
		out[i] = MultiQueueCell{
			SizeBytes: arms[i].bench.ObjectBytes,
			Queues:    arms[i].cfg.Bridge.Engine.Queues,
			IOPS:      r.bench.IOPS(),
			AvgLat:    r.bench.AvgLatency,
			HostUtil:  r.hostUtil,
			Occupancy: r.engineOccupancy(opts.Duration + opts.Warmup),
		}
		if r.batchFlushes > 0 {
			out[i].AvgBatchSize = float64(r.batchedTxns) / float64(r.batchFlushes)
		}
	}
	// Gains are relative to the first queue count of each size group
	// (conventionally 1, the serial engine).
	for i := range out {
		ref := out[i/len(queues)*len(queues)]
		if ref.IOPS > 0 {
			out[i].GainPct = (out[i].IOPS/ref.IOPS - 1) * 100
		}
	}
	return out, nil
}

// MultiQueueTable renders the multi-queue ablation.
func MultiQueueTable(rows []MultiQueueCell) *report.Table {
	t := &report.Table{
		Title: "Multi-queue DMA ablation: batched DoCeph, queues = OSD op shards",
		Header: []string{"size", "queues", "IOPS", "gain vs q=1", "avg lat (s)",
			"avg batch", "host CPU", "engine occupancy"},
	}
	for _, r := range rows {
		t.AddRow(report.KB(r.SizeBytes), fmt.Sprint(r.Queues), report.F2(r.IOPS),
			fmt.Sprintf("%+.0f%%", r.GainPct), report.F3(r.AvgLat.Seconds()),
			report.F2(r.AvgBatchSize), report.Pct(r.HostUtil), report.Pct(r.Occupancy))
	}
	t.AddNote("the serial engine (q=1) caps frame throughput at ~1/setup-time; parallel queues overlap setups while copies share CopySlots PCIe bus slots")
	return t
}
