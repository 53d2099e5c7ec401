package doceph

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"doceph/internal/report"
)

// chaosOpts keeps the chaos runs CI-sized: the default plan scales its
// windows to the duration, so the shape is preserved. Writes are
// faultTestBytes.
func chaosOpts() ExpOptions {
	return ExpOptions{Duration: 30 * Second, Threads: 4, Seed: 42}
}

// faultTestBytes is the write size of the fault-experiment tests.
const faultTestBytes = 256 << 10

// TestChaosRunCompletes is the headline robustness check: under the full
// default fault plan, both deployments finish the run with every op resolved
// (success or typed error — nothing hung past the driver's horizon) and
// every verified read matching the written payload.
func TestChaosRunCompletes(t *testing.T) {
	r, err := RunChaos(chaosOpts(), faultTestBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []FaultModeResult{r.Baseline, r.DoCeph} {
		if m.Ops == 0 {
			t.Fatalf("%s: no ops issued", m.Mode)
		}
		if m.IntegrityChecked == 0 {
			t.Fatalf("%s: nothing verified", m.Mode)
		}
		if m.IntegrityOK != m.IntegrityChecked {
			t.Fatalf("%s: integrity %d/%d", m.Mode, m.IntegrityOK, m.IntegrityChecked)
		}
		if m.InjectedEvents == 0 {
			t.Fatalf("%s: fault plan injected nothing", m.Mode)
		}
		if m.DroppedFrames == 0 || m.SessionResets == 0 {
			t.Fatalf("%s: drop window had no effect (frames=%d resets=%d)",
				m.Mode, m.DroppedFrames, m.SessionResets)
		}
		if m.BitRotObjects == 0 {
			t.Fatalf("%s: bit-rot corrupted nothing", m.Mode)
		}
		if m.ScrubErrors == 0 {
			t.Fatalf("%s: scrub missed the bit-rot", m.Mode)
		}
	}
	// The DPU faults only exist in DoCeph mode.
	if r.DoCeph.DMAErrors == 0 {
		t.Fatal("doceph: DMA fault window injected no errors")
	}
	if r.Baseline.DMAErrors != 0 {
		t.Fatal("baseline: phantom DMA errors")
	}
}

// TestChaosDeterminism asserts the reproducibility contract: the same seed
// and the same plan produce byte-identical results across two full runs.
func TestChaosDeterminism(t *testing.T) {
	opts := ExpOptions{Duration: 12 * Second, Threads: 4, Seed: 7}
	a, err := RunChaos(opts, faultTestBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(opts, faultTestBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed + plan diverged:\nrun1: %+v\nrun2: %+v", a, b)
	}
	checkFaultGolden(t, "testdata/golden_chaos.txt", ChaosTable(a), a.Baseline.MBps, a.DoCeph.MBps)
}

// checkFaultGolden pins a fault experiment's rendered table plus both
// deployments' per-second throughput series against a text golden file, so
// the results stay fixed from one change to the next, not just run to run.
// Regenerate only for an intentional model change:
//
//	go test -run 'TestChaosDeterminism|TestSelfHealDeterminism' -update-golden .
func checkFaultGolden(t *testing.T, path string, tbl *report.Table, baseMBps, docephMBps []float64) {
	t.Helper()
	var b strings.Builder
	b.WriteString(tbl.String())
	for _, s := range []struct {
		mode string
		mbps []float64
	}{{"Baseline", baseMBps}, {"DoCeph", docephMBps}} {
		fmt.Fprintf(&b, "%s MB/s per second:", s.mode)
		for _, v := range s.mbps {
			fmt.Fprintf(&b, " %v", v)
		}
		b.WriteString("\n")
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from golden:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
