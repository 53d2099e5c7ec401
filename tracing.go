package doceph

import (
	"fmt"

	"doceph/internal/report"
	"doceph/internal/trace"
)

// Tracing re-exports: the span record, the per-stage aggregate row and the
// tracer itself, so callers can post-process traces without importing the
// internal package.
type (
	// TraceSpan is one stage of one operation's lifetime.
	TraceSpan = trace.Span
	// TraceStageStat is one (stage, resource) row of the aggregation.
	TraceStageStat = trace.StageStat
	// Tracer records spans against a cluster's virtual clock.
	Tracer = trace.Tracer
)

// ChromeTrace renders spans as Chrome trace_event JSON (open in
// chrome://tracing or https://ui.perfetto.dev). Byte-deterministic for a
// deterministic span slice.
func ChromeTrace(spans []TraceSpan) []byte { return trace.ChromeTrace(spans) }

// CheckTraceInvariants validates span structure: finished spans nest
// inside their parents in virtual time and inherit their operation ID.
func CheckTraceInvariants(spans []TraceSpan) error { return trace.CheckInvariants(spans) }

// TracedRun is one deployment's traced benchmark window.
type TracedRun struct {
	Mode  Mode
	Bench BenchResult
	// Spans are the finished spans of the measured window, in event order.
	Spans []TraceSpan
	// Stages is the per-(stage, resource) aggregation of Spans.
	Stages []TraceStageStat
	// TracedCPU sums span CPU per processor; Busy is each processor's
	// total accounted busy time over the same window (traced <= busy, the
	// conservation invariant — background daemons are untraced).
	TracedCPU map[string]Duration
	Busy      map[string]Duration
}

// TraceBreakdownResult holds both deployments traced at one request size.
type TraceBreakdownResult struct {
	SizeBytes int64
	Baseline  TracedRun
	DoCeph    TracedRun
}

// RunTraceBreakdown runs one traced write benchmark per deployment and
// returns per-stage CPU-attribution and latency breakdowns. Each run is
// self-checking: span-nesting and CPU-conservation invariants are
// verified before the result is returned. size 0 means 4 MB.
func RunTraceBreakdown(opts ExpOptions, size int64) (TraceBreakdownResult, error) {
	opts = opts.withDefaults()
	if size == 0 {
		size = 4 << 20
	}
	rs, err := runArms(opts, deploymentArms("trace", []int64{size}, ClusterConfig{Trace: true}, BenchConfig{}))
	if err != nil {
		return TraceBreakdownResult{}, err
	}
	traced := func(mode Mode, r runResult) TracedRun {
		return TracedRun{
			Mode: mode, Bench: r.bench, Spans: r.spans,
			Stages:    trace.Aggregate(r.spans),
			TracedCPU: trace.CPUByResource(r.spans),
			Busy:      r.busy,
		}
	}
	return TraceBreakdownResult{SizeBytes: size,
		Baseline: traced(Baseline, rs[0]), DoCeph: traced(DoCeph, rs[1])}, nil
}

// StageTable renders one deployment's per-stage breakdown.
func (r TracedRun) StageTable(sizeBytes int64) *report.Table {
	return report.StageTable(fmt.Sprintf(
		"Tracing: per-stage breakdown, %s (%s writes)", r.Mode, report.MB(sizeBytes)),
		r.Stages)
}

// CPUAttributionTable renders traced CPU per processor for both
// deployments side by side — the host→DPU shift the paper measures, now
// derived bottom-up from op spans instead of thread accounting.
func (r TraceBreakdownResult) CPUAttributionTable() *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Tracing: traced CPU by processor (%s writes)", report.MB(r.SizeBytes)),
		Header: []string{"deployment", "resource", "traced cpu (s)", "share"},
	}
	for _, run := range []TracedRun{r.Baseline, r.DoCeph} {
		for _, row := range report.CPUAttributionRows(run.TracedCPU) {
			t.AddRow(append([]string{run.Mode.String()}, row...)...)
		}
	}
	t.AddNote("DoCeph moves messenger/OSD cycles from host-* to bf3-*-arm; the host keeps BlueStore + the RPC/DMA server")
	return t
}
