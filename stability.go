package doceph

import (
	"fmt"
	"math"

	"doceph/internal/report"
)

// StabilityResult captures the abstract's "sustaining stable throughput"
// claim: per-second throughput series for both deployments under the same
// workload, with dispersion statistics.
type StabilityResult struct {
	SizeBytes int64
	Baseline  StabilitySeries
	DoCeph    StabilitySeries
}

// StabilitySeries is one deployment's per-second behaviour.
type StabilitySeries struct {
	MBps      []float64
	MeanMBps  float64
	StddevPct float64 // coefficient of variation, percent
}

// RunStability runs the 4 MB write workload on both deployments and
// collects rados bench's per-second samples.
func RunStability(opts ExpOptions, size int64) (StabilityResult, error) {
	opts = opts.withDefaults()
	if size == 0 {
		size = 4 << 20
	}
	rs, err := runArms(opts, deploymentArms("stability", []int64{size}, ClusterConfig{}, BenchConfig{}))
	if err != nil {
		return StabilityResult{SizeBytes: size}, err
	}
	return StabilityResult{SizeBytes: size, Baseline: stabilitySeries(rs[0].bench),
		DoCeph: stabilitySeries(rs[1].bench)}, nil
}

// stabilitySeries turns a run's per-second samples into MB/s with their
// mean and coefficient of variation.
func stabilitySeries(res BenchResult) StabilitySeries {
	var s StabilitySeries
	var sum, sq float64
	for _, sample := range res.PerSecond {
		v := float64(sample.Bytes) / 1e6
		s.MBps = append(s.MBps, v)
		sum += v
	}
	n := float64(len(s.MBps))
	if n > 0 {
		s.MeanMBps = sum / n
		for _, v := range s.MBps {
			d := v - s.MeanMBps
			sq += d * d
		}
		if n > 1 && s.MeanMBps > 0 {
			s.StddevPct = math.Sqrt(sq/(n-1)) / s.MeanMBps * 100
		}
	}
	return s
}

// StabilityTable renders the per-second series side by side with ASCII
// bars (the paper's "stable throughput" abstract claim, made visible).
func StabilityTable(r StabilityResult) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Stability: per-second throughput, %s writes (MB/s)",
			report.MB(r.SizeBytes)),
		Header: []string{"second", "Baseline", "", "DoCeph", ""},
	}
	max := 0.0
	for _, v := range append(append([]float64{}, r.Baseline.MBps...), r.DoCeph.MBps...) {
		if v > max {
			max = v
		}
	}
	n := len(r.Baseline.MBps)
	if len(r.DoCeph.MBps) < n {
		n = len(r.DoCeph.MBps)
	}
	for i := 0; i < n; i++ {
		t.AddRow(fmt.Sprint(i),
			report.F2(r.Baseline.MBps[i]), report.Bar(r.Baseline.MBps[i], max, 24),
			report.F2(r.DoCeph.MBps[i]), report.Bar(r.DoCeph.MBps[i], max, 24))
	}
	t.AddNote("baseline mean %.1f MB/s (cv %.1f%%); doceph mean %.1f MB/s (cv %.1f%%)",
		r.Baseline.MeanMBps, r.Baseline.StddevPct, r.DoCeph.MeanMBps, r.DoCeph.StddevPct)
	t.AddNote("abstract claim: DoCeph cuts host CPU \"while sustaining stable throughput\"")
	return t
}
