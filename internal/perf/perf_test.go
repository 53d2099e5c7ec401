package perf

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"doceph/internal/cluster"
)

func validScenario() Scenario {
	return Scenario{Name: "t", Mode: cluster.Baseline, ObjectBytes: 64 << 10,
		Threads: 2, DurationSec: 1, WarmupSec: 0, Seed: 1}
}

func TestScenarioValidate(t *testing.T) {
	if err := validScenario().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
		wants  string
	}{
		{"no name", func(sc *Scenario) { sc.Name = "" }, "no name"},
		{"zero threads", func(sc *Scenario) { sc.Threads = 0 }, "threads"},
		{"negative threads", func(sc *Scenario) { sc.Threads = -4 }, "threads"},
		{"zero object bytes", func(sc *Scenario) { sc.ObjectBytes = 0 }, "object_bytes"},
		{"zero duration", func(sc *Scenario) { sc.DurationSec = 0 }, "duration_sec"},
		{"negative warmup", func(sc *Scenario) { sc.WarmupSec = -1 }, "warmup_sec"},
	}
	for _, tc := range cases {
		sc := validScenario()
		tc.mutate(&sc)
		err := sc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wants) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wants)
		}
		// RunScenario must refuse too, without spinning up a cluster.
		if _, err := RunScenario(sc); err == nil {
			t.Errorf("%s: RunScenario accepted an invalid scenario", tc.name)
		}
	}
}

// TestRunSweepStopsOnError is the regression for the bench gate: a sweep
// containing a broken scenario must return an error, not a partial report
// that then gets written to BENCH_sim.json.
func TestRunSweepStopsOnError(t *testing.T) {
	bad := validScenario()
	bad.Threads = 0
	if _, err := RunSweep([]Scenario{bad, validScenario()}); err == nil {
		t.Fatal("sweep with a broken scenario returned nil error")
	}
}

// TestRunScenarioAccumulates runs one tiny real scenario and checks that
// every stat field is populated and internally consistent.
func TestRunScenarioAccumulates(t *testing.T) {
	m, err := RunScenario(validScenario())
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "t" {
		t.Errorf("name = %q", m.Name)
	}
	if m.Ops <= 0 || m.SimEvents == 0 || m.WallNs <= 0 {
		t.Fatalf("empty measurement: %+v", m)
	}
	if m.EventsPerSec <= 0 || m.NsPerOp <= 0 {
		t.Errorf("rates not derived: %+v", m)
	}
	wantNsPerOp := float64(m.WallNs) / float64(m.Ops)
	if math.Abs(m.NsPerOp-wantNsPerOp) > 1e-9*wantNsPerOp {
		t.Errorf("ns/op = %v, want %v", m.NsPerOp, wantNsPerOp)
	}
}

// TestRunScenarioDegraded pins the self-healing perf shape: runScenario's
// engagement check errors out unless the crash/rejoin schedule produced
// degraded writes and real backfill, so a passing run proves the scenario
// measures the recovery path, not a silently clean one.
func TestRunScenarioDegraded(t *testing.T) {
	sc := Scenario{Name: "degraded", Mode: cluster.DoCeph, ObjectBytes: 4 << 10,
		Threads: 4, DurationSec: 2, WarmupSec: 1, Seed: 1, Degraded: true}
	m, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if m.Ops <= 0 {
		t.Fatalf("no ops completed under the degraded schedule: %+v", m)
	}
}

// TestRunSweepAggregation recomputes the sweep totals from the per-scenario
// rows to pin the aggregation arithmetic.
func TestRunSweepAggregation(t *testing.T) {
	a := validScenario()
	b := validScenario()
	b.Name = "t2"
	b.Mode = cluster.DoCeph
	rep, err := RunSweepWorkers([]Scenario{a, b}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 2 {
		t.Fatalf("got %d rows, want 2", len(rep.Scenarios))
	}
	var events uint64
	var wallNs, ops int64
	var allocs float64
	for _, m := range rep.Scenarios {
		events += m.SimEvents
		wallNs += m.WallNs
		ops += m.Ops
		allocs += m.AllocsPerOp * float64(m.Ops)
	}
	approx := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*math.Abs(want)
	}
	if !approx(rep.EventsPerSec, float64(events)/(float64(wallNs)/1e9)) {
		t.Errorf("events/s = %v", rep.EventsPerSec)
	}
	if !approx(rep.NsPerOp, float64(wallNs)/float64(ops)) {
		t.Errorf("ns/op = %v", rep.NsPerOp)
	}
	if !approx(rep.AllocsPerOp, allocs/float64(ops)) {
		t.Errorf("allocs/op = %v", rep.AllocsPerOp)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := Report{
		Scenarios: []Measurement{{
			Name: "x", Ops: 10, SimEvents: 1000, WallNs: 5000,
			EventsPerSec: 2e8, NsPerOp: 500, AllocsPerOp: 1.5, BytesPerOp: 64,
		}},
		EventsPerSec: 2e8, AllocsPerOp: 1.5, NsPerOp: 500,
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Errorf("round trip changed the report:\n got  %+v\n want %+v", got, rep)
	}
}

func TestUpdateFileLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")

	// First run on a missing file: becomes its own baseline, ratios 1.0.
	first := Report{EventsPerSec: 100, AllocsPerOp: 4, NsPerOp: 10}
	f, err := UpdateFile(path, first, false)
	if err != nil {
		t.Fatal(err)
	}
	if f.Baseline == nil || f.Baseline.EventsPerSec != 100 {
		t.Fatalf("first run did not self-baseline: %+v", f)
	}
	if f.SpeedupEventsPerSec != 1 || f.AllocsPerOpRatio != 1 {
		t.Errorf("self-comparison ratios = %v, %v, want 1, 1",
			f.SpeedupEventsPerSec, f.AllocsPerOpRatio)
	}

	// Second run: baseline sticks, current and ratios move.
	second := Report{EventsPerSec: 200, AllocsPerOp: 2, NsPerOp: 5}
	f, err = UpdateFile(path, second, false)
	if err != nil {
		t.Fatal(err)
	}
	if f.Baseline.EventsPerSec != 100 || f.Current.EventsPerSec != 200 {
		t.Fatalf("baseline did not stick: %+v", f)
	}
	if f.SpeedupEventsPerSec != 2 || f.AllocsPerOpRatio != 0.5 {
		t.Errorf("ratios = %v, %v, want 2, 0.5",
			f.SpeedupEventsPerSec, f.AllocsPerOpRatio)
	}

	// Rebaseline: baseline jumps to the new run.
	f, err = UpdateFile(path, second, true)
	if err != nil {
		t.Fatal(err)
	}
	if f.Baseline.EventsPerSec != 200 || f.SpeedupEventsPerSec != 1 {
		t.Errorf("rebaseline did not take: %+v", f)
	}

	// The file must survive a reload round trip.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var reload File
	if err := json.Unmarshal(raw, &reload); err != nil {
		t.Fatal(err)
	}
	if reload.Baseline.EventsPerSec != 200 || reload.Current.EventsPerSec != 200 {
		t.Errorf("reloaded file diverged: %+v", reload)
	}
}

func TestGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")

	// Nothing recorded yet: nothing to compare.
	if err := Guard(path, Report{EventsPerSec: 1}, 0.3, 2); err != nil {
		t.Errorf("missing file must pass: %v", err)
	}

	if _, err := UpdateFile(path, Report{EventsPerSec: 1000, AllocsPerOp: 50}, false); err != nil {
		t.Fatal(err)
	}
	if err := Guard(path, Report{EventsPerSec: 400, AllocsPerOp: 60}, 0.3, 2); err != nil {
		t.Errorf("run above the floor rejected: %v", err)
	}
	err := Guard(path, Report{EventsPerSec: 200}, 0.3, 2)
	if err == nil || !strings.Contains(err.Error(), "perf regression") {
		t.Errorf("collapsed run accepted: %v", err)
	}

	// The allocs/op ceiling: events/sec fine, allocations ballooned.
	err = Guard(path, Report{EventsPerSec: 1000, AllocsPerOp: 150}, 0.3, 2)
	if err == nil || !strings.Contains(err.Error(), "alloc regression") {
		t.Errorf("alloc blow-up accepted: %v", err)
	}
	// Ceiling disabled with maxAllocsRatio 0.
	if err := Guard(path, Report{EventsPerSec: 1000, AllocsPerOp: 150}, 0.3, 0); err != nil {
		t.Errorf("disabled alloc ceiling must pass: %v", err)
	}

	if err := os.WriteFile(path, []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Guard(path, Report{EventsPerSec: 1000}, 0.3, 2); err == nil {
		t.Error("corrupt guard file must error, not silently pass")
	}
}

// TestHostFingerprint: UpdateFile records the report's host next to its
// rates, and Guard compares rates only — a record from another host
// neither passes nor fails a run by itself.
func TestHostFingerprint(t *testing.T) {
	h := ThisHost()
	if h.Cores != runtime.NumCPU() || h.GOMAXPROCS != runtime.GOMAXPROCS(0) || h.GoVersion != runtime.Version() {
		t.Fatalf("ThisHost() = %+v", h)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	other := &Host{Cores: 64, GOMAXPROCS: 64, GoVersion: "go0.0"}
	if _, err := UpdateFile(path, Report{EventsPerSec: 1000, AllocsPerOp: 50, Host: other}, false); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.Current.Host == nil || *f.Current.Host != *other {
		t.Fatalf("recorded host = %+v, want %+v", f.Current.Host, other)
	}
	if err := Guard(path, Report{EventsPerSec: 400, AllocsPerOp: 60, Host: h}, 0.3, 2); err != nil {
		t.Errorf("host mismatch must not fail the guard: %v", err)
	}
	if err := Guard(path, Report{EventsPerSec: 200, Host: other}, 0.3, 2); err == nil {
		t.Error("host match must not excuse a collapsed run")
	}
}

// TestUpdateFileRefusesCorruptHistory is the no-partial-JSON regression:
// if the existing bench file cannot be parsed, UpdateFile must error and
// leave the file byte-identical instead of overwriting history.
func TestUpdateFileRefusesCorruptHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	corrupt := []byte(`{"baseline": {truncated`)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := UpdateFile(path, Report{EventsPerSec: 1}, false); err == nil {
		t.Fatal("UpdateFile accepted a corrupt history file")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(corrupt) {
		t.Error("UpdateFile modified the file despite erroring")
	}
}

// TestRunSweepParallelMatchesSerial pins the parallel runner's contract:
// simulated results (ops, kernel events) are bit-identical to a serial run
// — each scenario is an isolated simulation — and rows come back in sweep
// order. Per-scenario allocation attribution is a serial-only feature; the
// parallel sweep must leave those fields zero and still fill the aggregate.
func TestRunSweepParallelMatchesSerial(t *testing.T) {
	a := validScenario()
	b := validScenario()
	b.Name = "t-mq"
	b.Mode = cluster.DoCeph
	b.DMAQueues = 2
	b.OpShards = 2
	b.MsgrLanes = 2
	b.Batch = true
	sweep := []Scenario{a, b}
	serial, err := RunSweepWorkers(sweep, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSweepWorkers(sweep, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Scenarios) != 2 || par.Scenarios[0].Name != "t" || par.Scenarios[1].Name != "t-mq" {
		t.Fatalf("parallel rows out of order: %+v", par.Scenarios)
	}
	for i := range sweep {
		s, p := serial.Scenarios[i], par.Scenarios[i]
		if s.Ops != p.Ops || s.SimEvents != p.SimEvents {
			t.Errorf("%s: simulated results changed under parallelism: ops %d/%d events %d/%d",
				s.Name, s.Ops, p.Ops, s.SimEvents, p.SimEvents)
		}
		if p.AllocsPerOp != 0 || p.BytesPerOp != 0 {
			t.Errorf("%s: parallel sweep attributed per-scenario allocations: %+v", p.Name, p)
		}
		if s.AllocsPerOp <= 0 {
			t.Errorf("%s: serial sweep did not attribute allocations", s.Name)
		}
	}
	if par.AllocsPerOp <= 0 {
		t.Errorf("parallel aggregate allocs/op not measured: %+v", par)
	}
}

// TestGuardPerScenario: a collapse confined to one scenario must fail the
// guard even when the aggregate stays healthy, and unmeasured (zero)
// alloc fields must be skipped rather than compared.
func TestGuardPerScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	rec := Report{
		EventsPerSec: 1000, AllocsPerOp: 50,
		Scenarios: []Measurement{
			{Name: "big", EventsPerSec: 900, AllocsPerOp: 40},
			{Name: "mq", EventsPerSec: 800, AllocsPerOp: 60},
		},
	}
	if _, err := UpdateFile(path, rec, false); err != nil {
		t.Fatal(err)
	}
	healthy := Report{
		EventsPerSec: 950, AllocsPerOp: 55,
		Scenarios: []Measurement{
			{Name: "big", EventsPerSec: 850, AllocsPerOp: 45},
			{Name: "mq", EventsPerSec: 700, AllocsPerOp: 65},
		},
	}
	if err := Guard(path, healthy, 0.3, 2); err != nil {
		t.Errorf("healthy per-scenario run rejected: %v", err)
	}
	collapsed := healthy
	collapsed.Scenarios = []Measurement{
		{Name: "big", EventsPerSec: 850, AllocsPerOp: 45},
		{Name: "mq", EventsPerSec: 100, AllocsPerOp: 65},
	}
	err := Guard(path, collapsed, 0.3, 2)
	if err == nil || !strings.Contains(err.Error(), "mq") {
		t.Errorf("per-scenario collapse accepted: %v", err)
	}
	bloated := healthy
	bloated.Scenarios = []Measurement{
		{Name: "big", EventsPerSec: 850, AllocsPerOp: 45},
		{Name: "mq", EventsPerSec: 700, AllocsPerOp: 200},
	}
	err = Guard(path, bloated, 0.3, 2)
	if err == nil || !strings.Contains(err.Error(), "mq") {
		t.Errorf("per-scenario alloc blow-up accepted: %v", err)
	}
	// Zero on either side (parallel sweep, unknown scenario): skipped.
	unmeasured := healthy
	unmeasured.Scenarios = []Measurement{
		{Name: "big", EventsPerSec: 850},
		{Name: "new-scenario", EventsPerSec: 1, AllocsPerOp: 999},
	}
	if err := Guard(path, unmeasured, 0.3, 2); err != nil {
		t.Errorf("unmeasured fields compared: %v", err)
	}
}

// TestSmokeSweepRowsPinned pins the smoke sweep field for field: it is
// derived from DefaultSweep, and the derivation must keep producing the
// rows `simbench -smoke` and the bench-smoke guard have always run.
func TestSmokeSweepRowsPinned(t *testing.T) {
	const d = cluster.DoCeph
	want := []Scenario{
		{Name: "baseline-1M", Mode: cluster.Baseline, ObjectBytes: 1 << 20, Threads: 8, DurationSec: 2, WarmupSec: 1, Seed: 42},
		{Name: "doceph-1M", Mode: d, ObjectBytes: 1 << 20, Threads: 8, DurationSec: 2, WarmupSec: 1, Seed: 42},
		{Name: "doceph-mq4-64K", Mode: d, ObjectBytes: 64 << 10, Threads: 8, DurationSec: 2, WarmupSec: 1, Seed: 42,
			DMAQueues: 4, OpShards: 4, MsgrLanes: 4, Batch: true},
		{Name: "doceph-degraded-4K", Mode: d, ObjectBytes: 4 << 10, Threads: 8, DurationSec: 2, WarmupSec: 1, Seed: 42,
			Degraded: true},
		{Name: "doceph-read-4K", Mode: d, ObjectBytes: 4 << 10, Threads: 8, DurationSec: 2, WarmupSec: 1, Seed: 42,
			Op: "read"},
		{Name: "doceph-mix70-4K", Mode: d, ObjectBytes: 4 << 10, Threads: 8, DurationSec: 2, WarmupSec: 1, Seed: 42,
			Op: "mixed", ReadPercent: 70},
		{Name: "doceph-stream-16M", Mode: d, ObjectBytes: 16 << 20, Threads: 4, DurationSec: 2, WarmupSec: 1, Seed: 42,
			Stream: true},
		{Name: "doceph-scaleout-32osd@w1", Mode: d, ObjectBytes: 256 << 10, Threads: 4, DurationSec: 1, WarmupSec: 1, Seed: 42,
			ScaleOutPods: 8, OSDsPerPod: 4, SimWorkers: 1},
		{Name: "doceph-scaleout-32osd@w4", Mode: d, ObjectBytes: 256 << 10, Threads: 4, DurationSec: 1, WarmupSec: 1, Seed: 42,
			ScaleOutPods: 8, OSDsPerPod: 4, SimWorkers: 4},
		{Name: "doceph-scaleout-128osd@w1", Mode: d, ObjectBytes: 64 << 10, Threads: 2, DurationSec: 1, WarmupSec: 1, Seed: 42,
			ScaleOutPods: 16, OSDsPerPod: 8, SimWorkers: 1, Workload: "zipf", ReadPercent: 70, BalanceReads: true},
		{Name: "doceph-scaleout-128osd@w4", Mode: d, ObjectBytes: 64 << 10, Threads: 2, DurationSec: 1, WarmupSec: 1, Seed: 42,
			ScaleOutPods: 16, OSDsPerPod: 8, SimWorkers: 4, Workload: "zipf", ReadPercent: 70, BalanceReads: true},
	}
	got := SmokeSweep()
	if len(got) != len(want) {
		t.Fatalf("smoke sweep has %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("row %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}
