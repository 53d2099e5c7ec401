package doceph

import (
	"fmt"

	"doceph/internal/report"
)

// ScaleRow is one cluster size of the scale-out extension experiment.
type ScaleRow struct {
	Nodes         int
	BaselineUtil  float64 // per-node host CPU, single-core norm
	DoCephUtil    float64
	SavingPct     float64
	BaselineMBps  float64
	DoCephMBps    float64
	DoCephDPUUtil float64 // per-node DPU ARM, single-core norm
}

// RunScaleSweep grows the cluster beyond the paper's two storage nodes and
// measures whether the host-CPU savings and throughput scaling persist.
// Utilization is reported per node so cluster sizes are comparable.
func RunScaleSweep(opts ExpOptions, nodeCounts []int) ([]ScaleRow, error) {
	opts = opts.withDefaults()
	if len(nodeCounts) == 0 {
		nodeCounts = []int{2, 4, 8}
	}
	var arms []arm
	for _, n := range nodeCounts {
		for _, m := range []Mode{Baseline, DoCeph} {
			arms = append(arms, arm{name: fmt.Sprintf("scale %d nodes %v", n, m),
				cfg: ClusterConfig{Mode: m, StorageNodes: n},
				// Offered load scales with capacity.
				bench: BenchConfig{Threads: opts.Threads * n / 2, ObjectBytes: 4 << 20}})
		}
	}
	rs, err := runArms(opts, arms)
	if err != nil {
		return nil, err
	}
	out := make([]ScaleRow, len(nodeCounts))
	for i, n := range nodeCounts {
		base, dc := rs[2*i], rs[2*i+1]
		nodes := float64(n)
		out[i] = ScaleRow{
			Nodes:         n,
			BaselineUtil:  base.hostUtil / nodes,
			DoCephUtil:    dc.hostUtil / nodes,
			BaselineMBps:  base.bench.ThroughputBps() / 1e6,
			DoCephMBps:    dc.bench.ThroughputBps() / 1e6,
			DoCephDPUUtil: dc.dpuUtil / nodes,
		}
		if out[i].BaselineUtil > 0 {
			out[i].SavingPct = (1 - out[i].DoCephUtil/out[i].BaselineUtil) * 100
		}
	}
	return out, nil
}

// ScaleTable renders the scale-out sweep.
func ScaleTable(rows []ScaleRow) *report.Table {
	t := &report.Table{
		Title: "Extension: scale-out, 4MB writes (per-node CPU, 1-core norm)",
		Header: []string{"nodes", "Baseline host", "DoCeph host", "saving",
			"Baseline MB/s", "DoCeph MB/s", "DoCeph DPU"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Nodes), report.Pct(r.BaselineUtil),
			report.Pct(r.DoCephUtil), fmt.Sprintf("%.1f%%", r.SavingPct),
			report.F2(r.BaselineMBps), report.F2(r.DoCephMBps),
			report.Pct(r.DoCephDPUUtil))
	}
	t.AddNote("offered load scales with node count (threads = 16*n/2); savings must persist")
	return t
}
