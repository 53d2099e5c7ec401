package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"doceph/internal/sim"
	"doceph/internal/trace"
)

// short returns the named workload with its measured window cut to d, so
// the determinism properties are checked in seconds rather than minutes.
func short(t *testing.T, name string, seed int64, d sim.Duration) workload {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	if w.bench != nil {
		b := *w.bench
		b.Duration = d
		w.bench = &b
	} else {
		s := *w.scale
		s.Duration = d
		w.scale = &s
	}
	return w
}

func model(t *testing.T, w workload) map[string]float64 {
	t.Helper()
	arms, err := w.run(false)
	if err != nil {
		t.Fatal(err)
	}
	return combine(arms)
}

func TestSameSeedSameModel(t *testing.T) {
	for _, name := range []string{"paper-write", "small-mix"} {
		w := short(t, name, 5, sim.Second)
		if a, b := model(t, w), model(t, w); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs of seed 5 differ:\n%v\n%v", name, a, b)
		}
	}
}

func TestScaleOutWorkerCountInvariant(t *testing.T) {
	w := short(t, "scaleout-128", 5, 500*sim.Millisecond)
	w.workers = 1
	one := model(t, w)
	w.workers = 2
	if two := model(t, w); !reflect.DeepEqual(one, two) {
		t.Errorf("scale-out model differs between 1 and 2 kernel workers:\n%v\n%v", one, two)
	}
}

func TestSeedChangesModel(t *testing.T) {
	for _, name := range workloadNames {
		a := model(t, short(t, name, 1, 500*sim.Millisecond))
		b := model(t, short(t, name, 2, 500*sim.Millisecond))
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 give identical modelled metrics", name)
		}
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json's workload and metric
// names and units in step with what the program prints.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		E2E       []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: file has %+v, program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.E2E, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	spans := []trace.Span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 40},
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
	}
	if got := covered(spans[0], spans, []int{1, 2, 3}); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
}
