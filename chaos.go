package doceph

import (
	"fmt"

	"doceph/internal/report"
	"doceph/internal/sim"
)

// Chaos experiment: both deployments run the same closed-loop write/verify
// workload while an identical seeded fault plan degrades the network, the
// storage backend, the DPU data path and individual OSDs. The experiment
// checks the robustness machinery end to end — messenger session resets,
// client timeout/resend, replication retry/abort, scrub repair — and reports
// throughput dip and recovery time per deployment. Everything runs on
// virtual time from one seed, so a (seed, plan) pair reproduces bit-identical
// results (asserted by TestChaosDeterminism and pinned by
// testdata/golden_chaos.txt).

// DefaultChaosPlan builds the standard mixed fault schedule, with windows
// placed at fixed fractions of d so the same shape works for quick and full
// runs. The last ~16% of the run is fault-free, giving the recovery-time
// measurement a clean tail. Bit-rot and the OSD crash both target node1 /
// osd.1, so corrupted replica copies are never promoted to serving reads —
// scrub, not luck, is what restores redundancy.
func DefaultChaosPlan(d Duration) FaultPlan {
	frac := func(f float64) Duration { return Duration(float64(d) * f) }
	return FaultPlan{Name: "default-chaos", Events: []FaultEvent{
		{At: frac(0.10), Duration: frac(0.15), Kind: FaultDrop, Node: "node1", Prob: 0.05},
		{At: frac(0.15), Duration: frac(0.10), Kind: FaultLatency, Node: "node0", Extra: 2 * sim.Millisecond},
		{At: frac(0.30), Duration: frac(0.15), Kind: FaultOSDCrash, OSD: 1},
		{At: frac(0.50), Duration: frac(0.10), Kind: FaultSlowIO, Node: "node0", Extra: 3 * sim.Millisecond},
		{At: frac(0.62), Duration: frac(0.08), Kind: FaultWriteError, Node: "node0", Prob: 0.02},
		{At: frac(0.72), Kind: FaultBitRot, Node: "node1", Count: 5},
		{At: frac(0.76), Duration: frac(0.08), Kind: FaultDMAError, Node: "node0", Prob: 0.2},
		{At: frac(0.76), Duration: frac(0.08), Kind: FaultCommStall, Node: "node1", Extra: sim.Millisecond},
	}}
}

// RunChaos executes the chaos workload of size-byte writes (0 means 1 MB)
// on both deployments under plan (nil selects DefaultChaosPlan). Before the
// final verify pass every PG is scrubbed, repairing the injected bit-rot.
func RunChaos(opts ExpOptions, size int64, plan *FaultPlan) (FaultResult, error) {
	opts = opts.withDefaults()
	pl := DefaultChaosPlan(opts.Duration)
	if plan != nil {
		pl = *plan
	}
	return runFaultPair("chaos", opts, size, pl, func(mode Mode) ClusterConfig {
		return ClusterConfig{Mode: mode, Seed: opts.Seed}
	}, scrubAll)
}

// scrubAll scrubs every PG on every OSD and waits for all of them.
func scrubAll(p *sim.Proc, cl *Cluster) {
	var scrubs []*sim.Event
	for _, n := range cl.Nodes {
		scrubs = append(scrubs, n.OSD.ScrubNow())
	}
	for _, ev := range scrubs {
		ev.Wait(p)
	}
}

// ChaosTable renders the comparison.
func ChaosTable(r FaultResult) *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Chaos: plan %q, seed %d — Baseline vs DoCeph", r.PlanName, r.Seed),
		Header: []string{"metric", "Baseline", "DoCeph"},
	}
	i64 := func(v int64) string { return fmt.Sprint(v) }
	row := func(name string, b, d int64) { t.AddRow(name, i64(b), i64(d)) }
	row("ops issued", r.Baseline.Ops, r.DoCeph.Ops)
	row("typed errors", r.Baseline.Errors, r.DoCeph.Errors)
	row("client retries", r.Baseline.Retries, r.DoCeph.Retries)
	row("client timeouts", r.Baseline.Timeouts, r.DoCeph.Timeouts)
	row("stale replies", r.Baseline.StaleReplies, r.DoCeph.StaleReplies)
	row("map refreshes", r.Baseline.MapRefreshes, r.DoCeph.MapRefreshes)
	row("session resets", r.Baseline.SessionResets, r.DoCeph.SessionResets)
	row("frames dropped", r.Baseline.DroppedFrames, r.DoCeph.DroppedFrames)
	row("rep retries", r.Baseline.RepRetries, r.DoCeph.RepRetries)
	row("rep aborts", r.Baseline.RepAborts, r.DoCeph.RepAborts)
	row("scrub errors", r.Baseline.ScrubErrors, r.DoCeph.ScrubErrors)
	row("scrub repairs", r.Baseline.ScrubRepairs, r.DoCeph.ScrubRepairs)
	row("bit-rot objects", r.Baseline.BitRotObjects, r.DoCeph.BitRotObjects)
	row("injected store errors", r.Baseline.InjectedWriteErrors, r.DoCeph.InjectedWriteErrors)
	row("DMA errors", r.Baseline.DMAErrors, r.DoCeph.DMAErrors)
	row("integrity checked", r.Baseline.IntegrityChecked, r.DoCeph.IntegrityChecked)
	row("integrity ok", r.Baseline.IntegrityOK, r.DoCeph.IntegrityOK)
	t.AddRow("clean MB/s", report.F2(r.Baseline.CleanMBps), report.F2(r.DoCeph.CleanMBps))
	t.AddRow("worst dip (% of clean)", report.F2(r.Baseline.DipPct), report.F2(r.DoCeph.DipPct))
	t.AddRow("recovery (s)", report.F2(r.Baseline.RecoverySeconds), report.F2(r.DoCeph.RecoverySeconds))
	t.AddNote("identical fault schedule on both deployments; every op resolves " +
		"(success after retries, or a typed error) within its virtual-time deadline")
	if r.Baseline.IntegrityChecked == r.Baseline.IntegrityOK &&
		r.DoCeph.IntegrityChecked == r.DoCeph.IntegrityOK {
		t.AddNote("payload integrity: 100%% of verified reads matched the written CRC32C")
	}
	return t
}
