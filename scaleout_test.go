package doceph

import (
	"testing"

	"doceph/internal/radosbench"
)

// TestRunScaleOutWorkerRowsMatch drives the scale-out runner on a tiny
// cluster: the sweep arm re-run at a second kernel worker count must report
// the same simulated columns as at the first; only wall clock may differ.
func TestRunScaleOutWorkerRowsMatch(t *testing.T) {
	arm := ScaleOutConfig{Pods: 2, OSDsPerPod: 2, Mode: DoCeph, Seed: 5,
		Threads: 2, ObjectBytes: 64 << 10, ReadPercent: 70,
		Duration: 300 * Millisecond, Warmup: 100 * Millisecond,
		Popularity: radosbench.Popularity{Kind: radosbench.PopZipf}, BalanceReads: true,
		CollectImbalance: true}
	rows, err := RunScaleOut(ScaleOutOptions{Arms: []ScaleOutConfig{arm}, Workers: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Workers != 1 || rows[1].Workers != 2 {
		t.Fatalf("want one row per worker count {1, 2}, got %+v", rows)
	}
	simulated := func(r ScaleOutRow) ScaleOutRow {
		r.Workers, r.WallNs, r.EventsPerSec, r.Speedup = 0, 0, 0, 0
		return r
	}
	if simulated(rows[0]) != simulated(rows[1]) {
		t.Fatalf("simulated columns differ across worker counts:\nw1: %+v\nw2: %+v", rows[0], rows[1])
	}
	if rows[0].Ops == 0 || rows[0].Popularity != "zipf" || !rows[0].Balance {
		t.Fatalf("arm did not run as configured: %+v", rows[0])
	}

	if _, err := RunScaleOut(ScaleOutOptions{Arms: []ScaleOutConfig{arm}, Sweep: 1}); err == nil {
		t.Fatal("out-of-range sweep arm accepted")
	}
	arm.Duration = 0
	if _, err := RunScaleOut(ScaleOutOptions{Arms: []ScaleOutConfig{arm}}); err == nil {
		t.Fatal("arm without a Duration accepted")
	}
}
