package doceph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"doceph/internal/cluster"
	"doceph/internal/perf"
	"doceph/internal/radosbench"
	"doceph/internal/report"
)

// Partitioned scale-out API: the multi-rack cluster running on the
// conservative parallel event kernel.
type (
	// ScaleOutConfig shapes the partitioned multi-rack cluster.
	ScaleOutConfig = cluster.ScaleOutConfig
	// ScaleOut is an assembled partitioned cluster.
	ScaleOut = cluster.ScaleOut
	// ScaleOutResult is a run's deterministic aggregate.
	ScaleOutResult = cluster.ScaleOutResult
)

// NewScaleOut assembles a partitioned multi-rack cluster.
func NewScaleOut(cfg ScaleOutConfig) *ScaleOut { return cluster.NewScaleOut(cfg) }

// CrossRackLookahead is the model-derived lookahead bound for cross-rack
// links (see cluster.CrossRackLookahead).
func CrossRackLookahead(cfg ClusterConfig) Duration { return cluster.CrossRackLookahead(cfg) }

// ScaleOutOptions shapes a scale-out experiment: every arm runs once at
// Workers[0], then the Sweep arm is re-run at every other worker count.
type ScaleOutOptions struct {
	// Arms are the cluster shapes and workloads compared. Duration must be
	// set on each: it turns bytes into MB/s.
	Arms []ScaleOutConfig
	// Sweep indexes the arm re-run across worker counts.
	Sweep int
	// Workers are the kernel worker counts (default 1, 2, 4, 8).
	Workers []int
}

// ScaleOut32 is the `-exp scaleout` preset: the 32-OSD cluster (8 racks x
// 4 OSDs) under the uniform per-thread write stride, one arm. Zero window
// and warmup take 2 s and 500 ms.
func ScaleOut32(seed int64, window, warmup Duration) ScaleOutOptions {
	cfg := ScaleOutConfig{Pods: 8, OSDsPerPod: 4, Mode: DoCeph, Seed: seed,
		Duration: orDuration(window, 2*Second), Warmup: orDuration(warmup, 500*Millisecond),
		CollectImbalance: true}
	return ScaleOutOptions{Arms: []ScaleOutConfig{cfg}}
}

// ScaleOut128 is the `-exp scaleout128` preset: the 128-OSD cluster (16
// racks x 8 OSDs) with its catalog homed by rack-aware CRUSH, 64 KiB ops at
// 70% reads, under uniform vs Zipf vs hotspot popularity x balance-reads
// off/on; the Zipf+balance arm is the worker sweep. Zero window and warmup
// take 1 s and 500 ms.
func ScaleOut128(seed int64, window, warmup Duration) ScaleOutOptions {
	var o ScaleOutOptions
	for _, kind := range []radosbench.PopKind{radosbench.PopUniform, radosbench.PopZipf, radosbench.PopHotspot} {
		for _, balance := range []bool{false, true} {
			if kind == radosbench.PopZipf && balance {
				o.Sweep = len(o.Arms)
			}
			o.Arms = append(o.Arms, ScaleOutConfig{Pods: 16, OSDsPerPod: 8, Mode: DoCeph, Seed: seed,
				Threads: 2, ObjectBytes: 64 << 10, ReadPercent: 70,
				Duration: orDuration(window, Second), Warmup: orDuration(warmup, 500*Millisecond),
				Popularity: radosbench.Popularity{Kind: kind}, BalanceReads: balance, CollectImbalance: true})
		}
	}
	return o
}

func orDuration(d, def Duration) Duration {
	if d == 0 {
		return def
	}
	return d
}

// ScaleOutRow is one (arm, kernel worker count) run. Every column but the
// wall-clock ones (WallNs, EventsPerSec, Speedup) is simulated and, for the
// Sweep arm, identical on every worker row — RunScaleOut fails if not.
type ScaleOutRow struct {
	Popularity string // object-popularity model
	Balance    bool   // replica-read balancing
	Workers    int
	Ops        int64
	MBps       float64 // simulated client throughput
	Epochs     int64   // root-monitor epochs driven by cross-rack beacons
	Rounds     uint64  // kernel barrier rounds
	Delivered  uint64  // cross-partition messages
	Imb        perf.Imbalance
	WallNs     int64
	// EventsPerSec is wall-clock kernel throughput; Speedup compares it with
	// the arm's Workers[0] row.
	EventsPerSec float64
	Speedup      float64
}

// RunScaleOut runs every arm at Workers[0], then re-runs the Sweep arm at
// every other worker count, requiring its full result (throughput, epochs,
// imbalance arrays, queue-depth samples) to marshal to the same bytes at
// every count. A drift is an error, not a table footnote — determinism
// regardless of parallelism is the kernel's core contract.
func RunScaleOut(o ScaleOutOptions) ([]ScaleOutRow, error) {
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 2, 4, 8}
	}
	if o.Sweep < 0 || o.Sweep >= len(o.Arms) {
		return nil, fmt.Errorf("scale-out: sweep arm %d out of range (%d arms)", o.Sweep, len(o.Arms))
	}
	run := func(cfg ScaleOutConfig, workers int) (ScaleOutRow, []byte, error) {
		so := cluster.NewScaleOut(cfg)
		start := time.Now()
		res, err := so.Run(workers)
		wall := time.Since(start)
		so.Shutdown()
		if err != nil {
			return ScaleOutRow{}, nil, fmt.Errorf("scale-out %s balance=%v workers=%d: %w",
				cfg.Popularity.Kind, cfg.BalanceReads, workers, err)
		}
		fp, err := json.Marshal(res)
		if err != nil {
			return ScaleOutRow{}, nil, err
		}
		return ScaleOutRow{
			Popularity:   cfg.Popularity.Kind.String(),
			Balance:      cfg.BalanceReads,
			Workers:      workers,
			Ops:          res.TotalOps,
			MBps:         float64(res.TotalBytes) / 1e6 / cfg.Duration.Seconds(),
			Epochs:       res.Epochs,
			Rounds:       res.Rounds,
			Delivered:    res.Delivered,
			Imb:          perf.ComputeImbalance(res),
			WallNs:       wall.Nanoseconds(),
			EventsPerSec: float64(res.Events) / wall.Seconds(),
			Speedup:      1,
		}, fp, nil
	}
	var rows []ScaleOutRow
	var sweepRow ScaleOutRow
	var sweepFP []byte
	for i, cfg := range o.Arms {
		if cfg.Duration <= 0 {
			return nil, fmt.Errorf("scale-out: arm %d has no Duration", i)
		}
		row, fp, err := run(cfg, o.Workers[0])
		if err != nil {
			return nil, err
		}
		if i == o.Sweep {
			sweepRow, sweepFP = row, fp
		}
		rows = append(rows, row)
	}
	for _, w := range o.Workers[1:] {
		row, fp, err := run(o.Arms[o.Sweep], w)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(fp, sweepFP) {
			return nil, fmt.Errorf("scale-out determinism violation: %s balance=%v result at workers=%d differs from workers=%d",
				row.Popularity, row.Balance, w, o.Workers[0])
		}
		row.Speedup = row.EventsPerSec / sweepRow.EventsPerSec
		rows = append(rows, row)
	}
	return rows, nil
}

// ScaleOutTable renders a scale-out experiment.
func ScaleOutTable(rows []ScaleOutRow) *report.Table {
	t := &report.Table{
		Title: "Extension: partitioned parallel kernel, multi-rack scale-out",
		Header: []string{"popularity", "balance", "workers", "ops", "sim MB/s", "epochs",
			"barrier rounds", "xpart msgs", "osd max/mean", "pg max/mean", "qd p99:p50",
			"hot-read share", "balanced", "wall ms", "events/s", "speedup"},
	}
	for _, r := range rows {
		balance := "off"
		if r.Balance {
			balance = "on"
		}
		t.AddRow(r.Popularity, balance, fmt.Sprint(r.Workers), fmt.Sprint(r.Ops),
			report.F2(r.MBps), fmt.Sprint(r.Epochs), fmt.Sprint(r.Rounds), fmt.Sprint(r.Delivered),
			report.F2(r.Imb.MaxMeanOSDShare), report.F2(r.Imb.MaxMeanPGShare),
			report.F2(r.Imb.QueueDepthP99P50), fmt.Sprintf("%.3f", r.Imb.HotReadShare),
			fmt.Sprintf("%.3f", r.Imb.BalancedReadShare),
			fmt.Sprintf("%.1f", float64(r.WallNs)/1e6),
			fmt.Sprintf("%.0f", r.EventsPerSec), report.F2(r.Speedup))
	}
	t.AddNote("rows past the arm list re-run the sweep arm at more kernel workers; " +
		"its full result is byte-identical across counts (enforced), only the wall-clock columns move")
	t.AddNote("wall-clock speedup is bounded by physical cores; see DESIGN.md on the partitioned kernel")
	return t
}
