package doceph

import (
	"os"
	"strings"
	"testing"

	"doceph/internal/report"
)

const experimentsGoldenPath = "testdata/golden_experiments.txt"

// goldenExpOpts is the tiny option set of the experiment-table golden: 1 s
// windows and 4 clients keep every experiment's shape at a fraction of the
// quick runs' cost.
func goldenExpOpts() ExpOptions {
	return ExpOptions{Duration: Second, Warmup: 500 * Millisecond, Threads: 4, Seed: 42}
}

// TestGoldenExperimentTables pins the rendered tables of every two-node
// experiment runner — each paper figure and table plus the smallops, mq,
// read, readpath, streaming, ablation, scale, stability and trace
// extensions — at goldenExpOpts, with reduced size lists where the runner
// takes one. Any change to how an experiment builds, runs or scrapes its
// clusters shows up here as a table diff. Regenerate only for an
// intentional model change:
//
//	go test -run TestGoldenExperimentTables -update-golden .
func TestGoldenExperimentTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment-table golden skipped in -short mode")
	}
	opts := goldenExpOpts()
	var b strings.Builder
	emit := func(tables ...*report.Table) {
		for _, tbl := range tables {
			b.WriteString(tbl.String())
			b.WriteString("\n")
		}
	}
	step := func(name string, f func() error) {
		t.Helper()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	step("profile", func() error {
		p, err := RunMessengerProfile(opts)
		emit(p.Fig5Table(), p.Fig6Table(), p.Table2())
		return err
	})
	step("sizes", func() error {
		rows, err := RunSizeSweep(opts, []int64{1 << 20, 4 << 20})
		emit(Fig7Table(rows), Fig8Table(rows), Table3(rows), Fig9Table(rows), Fig10Table(rows))
		return err
	})
	step("smallops", func() error {
		rows, err := RunSmallOpsSweep(opts, []int64{4 << 10, 64 << 10})
		emit(SmallOpsTable(rows))
		return err
	})
	step("mq", func() error {
		rows, err := RunMultiQueueSweep(opts, []int{1, 4}, []int64{4 << 10})
		emit(MultiQueueTable(rows))
		return err
	})
	step("read", func() error {
		rows, err := RunReadSweep(opts, []int64{1 << 20})
		emit(ReadTable(rows))
		return err
	})
	step("readpath", func() error {
		rows, err := RunReadPathAblation(opts)
		emit(ReadPathTable(rows))
		return err
	})
	step("streaming", func() error {
		rows, err := RunStreamingAblation(opts)
		emit(StreamingTable(rows))
		return err
	})
	step("ablation", func() error {
		rows, err := RunAblations(opts)
		emit(AblationTable(rows))
		return err
	})
	step("scale", func() error {
		rows, err := RunScaleSweep(opts, []int{2, 4})
		emit(ScaleTable(rows))
		return err
	})
	step("stability", func() error {
		r, err := RunStability(opts, 1<<20)
		emit(StabilityTable(r))
		return err
	})
	step("trace", func() error {
		r, err := RunTraceBreakdown(opts, 1<<20)
		emit(r.Baseline.StageTable(r.SizeBytes), r.DoCeph.StageTable(r.SizeBytes),
			r.CPUAttributionTable())
		return err
	})

	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(experimentsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", experimentsGoldenPath)
		return
	}
	want, err := os.ReadFile(experimentsGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from golden:\n got:\n%s\nwant:\n%s", experimentsGoldenPath, got, want)
	}
}
