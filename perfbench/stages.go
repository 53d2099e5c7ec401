package main

import (
	"sort"
	"strings"

	"doceph/internal/sim"
	"doceph/internal/trace"
)

// baselineStages are the traced stages of the Baseline path; the DoCeph
// path adds the proxy, DMA and host-commit stages.
var baselineStages = []string{
	trace.StageMsgrSend, trace.StageWire, trace.StageMsgrRecv, trace.StageOSDOp,
	trace.StageRepOp, trace.StageReplication, trace.StageCommit, trace.StageAIO, trace.StageKV,
}

var docephStages = append(append([]string{}, baselineStages...),
	trace.StageSerialize, trace.StageDMAStage, trace.StageDMA, trace.StageHostCommit)

func armStages(arm string) []string {
	if arm == "doceph" {
		return docephStages
	}
	return baselineStages
}

// stageOf folds the per-queue DMA stages (dma.q<N>) into dma.
func stageOf(s string) string {
	if strings.HasPrefix(s, trace.StageDMA+".q") {
		return trace.StageDMA
	}
	return s
}

// stageMetrics reduces one traced arm's spans to per-stage self time and
// CPU per measured op, plus the arm's queue wait and span count per op. A
// span's self time is its latency minus the part of it that its children
// cover.
func stageMetrics(arm string, spans []trace.Span, ops int64) map[string]float64 {
	children := make(map[trace.SpanID][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]sim.Duration)
	cpu := make(map[string]sim.Duration)
	var wait sim.Duration
	for _, s := range spans {
		st := stageOf(s.Stage)
		self[st] += s.Latency() - covered(s, spans, children[s.ID])
		cpu[st] += s.CPU
		wait += s.QueueWait
	}
	m := map[string]float64{
		"trace." + arm + ".wait_ms_per_op": msPerOp(wait, ops),
		"trace." + arm + ".spans_per_op":   ratio(int64(len(spans)), ops),
	}
	for _, st := range armStages(arm) {
		m["trace."+arm+"."+st+".self_ms_per_op"] = msPerOp(self[st], ops)
		m["trace."+arm+"."+st+".cpu_ms_per_op"] = msPerOp(cpu[st], ops)
	}
	return m
}

// covered is the length of the union of the child intervals, clipped to
// the parent span.
func covered(parent trace.Span, spans []trace.Span, kids []int) sim.Duration {
	type iv struct{ lo, hi sim.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total sim.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			if v.hi > cur.hi {
				cur.hi = v.hi
			}
		default:
			total += cur.hi.Sub(cur.lo)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}
