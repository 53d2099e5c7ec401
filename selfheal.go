package doceph

import (
	"fmt"

	"doceph/internal/dpu"
	"doceph/internal/report"
	"doceph/internal/sim"
)

// Self-healing experiment: both deployments run the same closed-loop
// write/verify workload through a compound failure — an OSD crash (degraded
// acting sets, then recovery traffic) followed by a sustained DPU DMA fault
// (the offload data path goes dark). The run exercises the whole
// self-healing stack at once: the circuit breaker trips the DMA session over
// to the host RPC path and re-enrolls it after probes succeed, min_size
// keeps degraded writes flowing (and ledgered) while a replica is down, and
// the recovery QoS knobs keep the post-crash backfill from starving
// foreground I/O. Everything runs on virtual time from one seed, so a run
// reproduces bit-identically (asserted by TestSelfHealDeterminism and pinned
// by testdata/golden_selfheal.txt).

// BreakerConfig re-exports the DPU circuit-breaker tunables (see
// dpu.BreakerConfig).
type BreakerConfig = dpu.BreakerConfig

// selfHealDefaults fills the workload defaults and raises the duration to
// the experiment's 30 s floor: the 5 s heartbeat grace means a shorter run
// (e.g. -quick) never even detects the plan's crash window and the
// experiment degenerates.
func selfHealDefaults(o ExpOptions) ExpOptions {
	o = o.withDefaults()
	o.Duration = max(o.Duration, 30*Second)
	return o
}

// SelfHealPlan is the compound failure schedule: an OSD crash-and-restart
// early (degraded writes once the heartbeat grace expires and the monitor
// publishes the failure, then recovery on rejoin), and a sustained total DMA
// fault on node0 later (the breaker must open, fail traffic over to the host
// path, and re-enroll once the window closes). The crash window must
// comfortably exceed the 5 s heartbeat grace or the failure is never
// detected; the final ~25% of the run is fault-free so the breaker can walk
// open -> half-open -> closed and the backfill can proceed under QoS.
func SelfHealPlan(d Duration) FaultPlan {
	frac := func(f float64) Duration { return Duration(float64(d) * f) }
	return FaultPlan{Name: "selfheal", Events: []FaultEvent{
		{At: frac(0.10), Duration: frac(0.35), Kind: FaultOSDCrash, OSD: 1},
		{At: frac(0.55), Duration: frac(0.20), Kind: FaultDMAError, Node: "node0", Prob: 1.0},
	}}
}

// RunSelfHeal executes the self-healing workload of size-byte writes (0
// means 1 MB) on both deployments under plan (nil selects SelfHealPlan),
// with both mechanisms on.
func RunSelfHeal(opts ExpOptions, size int64, plan *FaultPlan) (FaultResult, error) {
	opts = selfHealDefaults(opts)
	pl := SelfHealPlan(opts.Duration)
	if plan != nil {
		pl = *plan
	}
	return runFaultPair("selfheal", opts, size, pl, func(mode Mode) ClusterConfig {
		return selfHealClusterConfig(mode, opts, true, true)
	}, settleBackfill(opts))
}

// selfHealClusterConfig is the self-healing experiment's cluster: a
// min_size floor of 1 (a PG keeps accepting degraded writes down to a
// single surviving replica), recovery QoS of 2 backfill reservations,
// 64 MB/s (~1/8 disk) and backoff depth 4 per OSD, and the DPU circuit
// breaker with its clock scaled to the run so the re-enroll arc (open
// timeout + CloseProbes probes) completes inside the clean tail — at the
// full 60 s these come out to the dpu package defaults. breaker and qos
// switch the two mechanisms off for the ablation; the breaker only takes
// effect on DoCeph nodes.
func selfHealClusterConfig(mode Mode, opts ExpOptions, breaker, qos bool) ClusterConfig {
	cfg := ClusterConfig{Mode: mode, Seed: opts.Seed, MinSize: 1}
	if qos {
		cfg.OSD.RecoveryMaxPGs = 2
		cfg.OSD.RecoveryBps = 64e6
		cfg.OSD.RecoveryBackoffDepth = 4
	}
	if breaker {
		b := dpu.DefaultBreakerConfig()
		b.Enable = true
		b.Window = opts.Duration / 6
		b.OpenTimeout = opts.Duration / 12
		b.ProbeInterval = opts.Duration / 60
		cfg.Bridge.Breaker = b
	}
	return cfg
}

// settleBackfill is the self-healing pre-verify step: let the backfill tail
// drain under its QoS budget before the final verify pass.
func settleBackfill(opts ExpOptions) func(*sim.Proc, *Cluster) {
	return func(p *sim.Proc, _ *Cluster) { p.Wait(opts.Duration / 6) }
}

// SelfHealTable renders the comparison.
func SelfHealTable(r FaultResult) *report.Table {
	t := &report.Table{
		Title:  fmt.Sprintf("Self-healing: plan %q, seed %d — Baseline vs DoCeph", r.PlanName, r.Seed),
		Header: []string{"metric", "Baseline", "DoCeph"},
	}
	row := func(name string, b, d int64) { t.AddRow(name, fmt.Sprint(b), fmt.Sprint(d)) }
	row("ops issued", r.Baseline.Ops, r.DoCeph.Ops)
	row("typed errors", r.Baseline.Errors, r.DoCeph.Errors)
	row("integrity checked", r.Baseline.IntegrityChecked, r.DoCeph.IntegrityChecked)
	row("integrity ok", r.Baseline.IntegrityOK, r.DoCeph.IntegrityOK)
	row("degraded writes", r.Baseline.DegradedWrites, r.DoCeph.DegradedWrites)
	row("no-quorum rejects", r.Baseline.NoQuorumRejects, r.DoCeph.NoQuorumRejects)
	row("degraded PGs healed", r.Baseline.DegradedPGsHealed, r.DoCeph.DegradedPGsHealed)
	row("objects recovered", r.Baseline.ObjectsRecovered, r.DoCeph.ObjectsRecovered)
	row("PGs backfilled", r.Baseline.PGsBackfilled, r.DoCeph.PGsBackfilled)
	row("recovery bytes", r.Baseline.RecoveryBytes, r.DoCeph.RecoveryBytes)
	row("recovery backoffs", r.Baseline.RecoveryBackoffs, r.DoCeph.RecoveryBackoffs)
	t.AddRow("recovery throttle (ms)",
		fmt.Sprint(int64(r.Baseline.RecoveryThrottle)/1e6),
		fmt.Sprint(int64(r.DoCeph.RecoveryThrottle)/1e6))
	row("DMA errors", r.Baseline.DMAErrors, r.DoCeph.DMAErrors)
	row("breaker opens", r.Baseline.BreakerOpens, r.DoCeph.BreakerOpens)
	row("breaker half-opens", r.Baseline.BreakerHalfOpens, r.DoCeph.BreakerHalfOpens)
	row("breaker closes", r.Baseline.BreakerCloses, r.DoCeph.BreakerCloses)
	row("probe successes", r.Baseline.ProbeSuccesses, r.DoCeph.ProbeSuccesses)
	row("host-path fallback txns", r.Baseline.FallbackTxns, r.DoCeph.FallbackTxns)
	t.AddRow("breaker final state", orDash(r.Baseline.BreakerFinal), orDash(r.DoCeph.BreakerFinal))
	t.AddRow("clean MB/s", report.F2(r.Baseline.CleanMBps), report.F2(r.DoCeph.CleanMBps))
	t.AddRow("worst dip (% of clean)", report.F2(r.Baseline.DipPct), report.F2(r.DoCeph.DipPct))
	t.AddRow("recovery (s)", report.F2(r.Baseline.RecoverySeconds), report.F2(r.DoCeph.RecoverySeconds))
	t.AddNote("identical fault schedule on both deployments: OSD crash + sustained DMA fault")
	if r.DoCeph.BreakerOpens > 0 && r.DoCeph.BreakerFinal == "closed" {
		t.AddNote("breaker completed the open -> half-open -> closed arc and re-enrolled DMA")
	}
	if r.Baseline.IntegrityChecked == r.Baseline.IntegrityOK &&
		r.DoCeph.IntegrityChecked == r.DoCeph.IntegrityOK {
		t.AddNote("payload integrity: 100%% of verified reads matched the written CRC32C")
	}
	return t
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// SelfHealAblationRow is one DoCeph run of the breaker x QoS grid.
type SelfHealAblationRow struct {
	Variant string
	FaultModeResult
}

// RunSelfHealAblation runs the DoCeph deployment through the selfheal plan
// with each combination of the two mechanisms, plus a fault-free reference
// row — the marginal value of the breaker and of recovery QoS under the
// identical failure schedule. size is the write size (0 means 1 MB).
func RunSelfHealAblation(opts ExpOptions, size int64) ([]SelfHealAblationRow, error) {
	opts = selfHealDefaults(opts)
	plan := SelfHealPlan(opts.Duration)
	variants := []struct {
		name         string
		breaker, qos bool
		plan         FaultPlan
	}{
		{"no faults (reference)", true, true, FaultPlan{Name: "none"}},
		{"breaker off, QoS off", false, false, plan},
		{"breaker on,  QoS off", true, false, plan},
		{"breaker off, QoS on", false, true, plan},
		{"breaker on,  QoS on", true, true, plan},
	}
	var rows []SelfHealAblationRow
	for _, v := range variants {
		r, err := runFaultMode("selfheal", selfHealClusterConfig(DoCeph, opts, v.breaker, v.qos),
			settleBackfill(opts), opts, size, v.plan)
		if err != nil {
			return rows, fmt.Errorf("ablation %q: %w", v.name, err)
		}
		rows = append(rows, SelfHealAblationRow{Variant: v.name, FaultModeResult: r})
	}
	return rows, nil
}

// SelfHealAblationTable renders the breaker x QoS grid.
func SelfHealAblationTable(rows []SelfHealAblationRow) *report.Table {
	t := &report.Table{
		Title: "Self-healing ablation (DoCeph, identical fault schedule)",
		Header: []string{"variant", "clean MB/s", "dip %", "recovery s",
			"errors", "fallback txns", "backoffs", "integrity", "breaker"},
	}
	for _, r := range rows {
		t.AddRow(r.Variant, report.F2(r.CleanMBps), report.F2(r.DipPct),
			report.F2(r.RecoverySeconds), fmt.Sprint(r.Errors),
			fmt.Sprint(r.FallbackTxns), fmt.Sprint(r.RecoveryBackoffs),
			fmt.Sprintf("%d/%d", r.IntegrityOK, r.IntegrityChecked),
			orDash(r.BreakerFinal))
	}
	t.AddNote("dip %% is the worst in-fault-window second relative to the clean mean (100 = no dip)")
	return t
}
