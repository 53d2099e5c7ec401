package doceph

import (
	"fmt"

	"doceph/internal/faultinject"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// Fault experiments (chaos, selfheal) share one harness: both deployments
// run the same closed-loop write/verify workload under a seeded fault plan,
// every acknowledged write is CRC-verified inline and again after the run,
// and the per-second throughput series yields the dip and recovery figures.
// An experiment differs only in its name, its cluster configuration and the
// step it takes between the drained workload and the final verify pass.

// Re-exported fault-plan types (the plan DSL lives in internal/faultinject).
type (
	// FaultPlan is a named, ordered fault schedule.
	FaultPlan = faultinject.Plan
	// FaultEvent is one timed fault of a plan.
	FaultEvent = faultinject.Event
	// FaultKind enumerates the injectable fault classes.
	FaultKind = faultinject.Kind
)

// Fault kinds, re-exported for plan construction.
const (
	FaultDrop       = faultinject.Drop
	FaultLatency    = faultinject.Latency
	FaultBandwidth  = faultinject.Bandwidth
	FaultPartition  = faultinject.Partition
	FaultSlowIO     = faultinject.SlowIO
	FaultWriteError = faultinject.WriteError
	FaultBitRot     = faultinject.BitRot
	FaultDMAError   = faultinject.DMAError
	FaultCommStall  = faultinject.CommStall
	FaultOSDCrash   = faultinject.OSDCrash
)

// faultVerifyEvery makes each fault-experiment worker read back one of
// its own objects after every faultVerifyEvery writes (inline integrity
// checking under faults).
const faultVerifyEvery = 4

// FaultModeResult is one deployment's behaviour under a fault plan. Every
// counter is collected on every run; each experiment's table shows the
// ones its plan exercises.
type FaultModeResult struct {
	Mode string

	// Workload outcome: every op either succeeded (possibly after client
	// retries) or returned a typed error within its deadline — never hung.
	Ops    int64
	Errors int64
	// Integrity: reads verified against the writer's CRC32C, inline during
	// the faults plus a full post-run pass over every surviving object.
	IntegrityChecked, IntegrityOK int64

	// Client robustness counters. NoQuorumWaits counts retry rounds spent
	// below min_size.
	Retries, Timeouts, Redirects, StaleReplies, MapRefreshes, NoQuorumWaits int64
	// Messenger/fabric counters (summed over all messengers).
	SessionResets, Redeliveries, DroppedFrames int64
	// OSD replication watchdog counters.
	RepRetries, RepAborts int64
	// Scrub outcome after the run.
	ScrubErrors, ScrubRepairs int64
	// Injected-fault ledger.
	InjectedEvents, BitRotObjects, InjectedWriteErrors, DMAErrors int64

	// Degraded-write machinery (min_size gate).
	DegradedWrites, NoQuorumRejects, DegradedPGsHealed int64
	// Recovery QoS.
	ObjectsRecovered, PGsBackfilled, RecoveryBytes, RecoveryBackoffs int64
	RecoveryThrottle                                                 Duration

	// Circuit breaker (all-node sums; zero on Baseline, which has no DPU).
	BreakerOpens, BreakerHalfOpens, BreakerCloses int64
	ProbeSuccesses, ProbeFailures                 int64
	// FallbackTxns counts transactions the proxy shipped over the host RPC
	// path; DataPlaneTxns went over DMA.
	FallbackTxns, DataPlaneTxns int64
	// BreakerFinal is node0's breaker state at run end ("" without one).
	BreakerFinal string

	// Per-second write throughput over the run.
	MBps []float64
	// CleanMBps averages the seconds outside every fault window.
	CleanMBps float64
	// DipPct is the worst in-window second relative to CleanMBps
	// (100 = no dip, 0 = full stall).
	DipPct float64
	// RecoverySeconds is how long after the last fault window closed the
	// throughput first reached 80% of CleanMBps again (-1 = never).
	RecoverySeconds float64
}

// FaultResult compares both deployments under the identical plan.
type FaultResult struct {
	PlanName string
	Seed     int64
	Baseline FaultModeResult
	DoCeph   FaultModeResult
}

// runFaultPair runs the harness on both deployments, each on the cluster
// cfgFor builds for it. The two runs use separate clusters built from the
// same seed, so they experience the identical fault schedule.
func runFaultPair(name string, opts ExpOptions, size int64, plan FaultPlan,
	cfgFor func(Mode) ClusterConfig, preVerify func(*sim.Proc, *Cluster)) (FaultResult, error) {
	out := FaultResult{PlanName: plan.Name, Seed: opts.Seed}
	for _, m := range []struct {
		mode Mode
		dst  *FaultModeResult
	}{{Baseline, &out.Baseline}, {DoCeph, &out.DoCeph}} {
		r, err := runFaultMode(name, cfgFor(m.mode), preVerify, opts, size, plan)
		if err != nil {
			return out, fmt.Errorf("%s %v: %w", name, m.mode, err)
		}
		*m.dst = r
	}
	return out, nil
}

// runFaultMode is the shared write/verify harness, writing size-byte
// objects (0 means 1 MB). name names every object and proc of the run, so it
// fixes CRUSH placement and with it the results; preVerify runs after the
// workload has drained and before every written object is read back.
func runFaultMode(name string, cfg ClusterConfig, preVerify func(*sim.Proc, *Cluster),
	opts ExpOptions, size int64, plan FaultPlan) (FaultModeResult, error) {
	if size == 0 {
		size = 1 << 20
	}
	cl := NewCluster(cfg)
	defer cl.Shutdown()
	res := FaultModeResult{Mode: cfg.Mode.String()}

	inj := faultinject.New(cl.Env, cl.FaultTargets())
	if err := inj.Run(plan); err != nil {
		return res, fmt.Errorf("fault plan rejected: %w", err)
	}

	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 2654435761)
	}
	wantCRC := wire.FromBytes(payload).CRC32C()

	var (
		stopped  bool
		perSecBy []int64
		written  = make([][]string, opts.Threads)
	)
	start := cl.Env.Now()
	record := func(end sim.Time, bytes int64) {
		sec := int(end.Sub(start) / sim.Duration(sim.Second))
		for len(perSecBy) <= sec {
			perSecBy = append(perSecBy, 0)
		}
		perSecBy[sec] += bytes
	}
	verify := func(p *sim.Proc, obj string) {
		bl, err := cl.Client.Read(p, obj, 0, 0)
		if err != nil {
			// A fault window can make the read itself fail; that is an
			// availability error, not an integrity violation.
			res.Errors++
			return
		}
		res.IntegrityChecked++
		if bl.CRC32C() == wantCRC {
			res.IntegrityOK++
		}
	}

	workersDone := 0
	for w := 0; w < opts.Threads; w++ {
		worker := w
		cl.Env.Spawn(fmt.Sprintf("%s-worker-%d", name, w), func(p *sim.Proc) {
			p.SetThread(sim.NewThread(fmt.Sprintf("%s-%d", name, worker), "client"))
			defer func() { workersDone++ }()
			for i := 0; !stopped; i++ {
				obj := fmt.Sprintf("%s_w%d_%d", name, worker, i)
				res.Ops++
				if err := cl.Client.Write(p, obj, wire.FromBytes(payload)); err != nil {
					// Typed error within the op deadline — the op did not
					// hang, the workload carries on.
					res.Errors++
					continue
				}
				written[worker] = append(written[worker], obj)
				record(p.Now(), size)
				if n := len(written[worker]); n > 0 && n%faultVerifyEvery == 0 {
					pick := written[worker][cl.Env.Rand().Intn(n)]
					res.Ops++
					verify(p, pick)
				}
			}
		})
	}
	cl.Env.Spawn(name+"-controller", func(p *sim.Proc) {
		p.Wait(opts.Duration)
		stopped = true
	})
	for !stopped {
		if err := cl.Env.RunUntil(cl.Env.Now().Add(sim.Second)); err != nil {
			return res, err
		}
	}
	// Drain in-flight ops: workers check `stopped` only between ops, so one
	// op deadline bounds the tail.
	for workersDone < opts.Threads {
		if err := cl.Env.RunUntil(cl.Env.Now().Add(sim.Second)); err != nil {
			return res, err
		}
	}

	// Post-run: the experiment's pre-verify step, then verify every object
	// the workload managed to write.
	verifyDone := false
	cl.Env.Spawn(name+"-verify", func(p *sim.Proc) {
		p.SetThread(sim.NewThread(name+"-verify", "client"))
		preVerify(p, cl)
		for _, objs := range written {
			for _, obj := range objs {
				verify(p, obj)
			}
		}
		verifyDone = true
	})
	for !verifyDone {
		if err := cl.Env.RunUntil(cl.Env.Now().Add(5 * sim.Second)); err != nil {
			return res, err
		}
	}

	collectFaultCounters(cl, inj, &res)
	for _, b := range perSecBy {
		res.MBps = append(res.MBps, float64(b)/1e6)
	}
	res.CleanMBps, res.DipPct, res.RecoverySeconds = faultDipRecovery(res.MBps, plan)
	return res, nil
}

// collectFaultCounters sums the robustness and self-healing counters of
// every layer into res.
func collectFaultCounters(cl *Cluster, inj *faultinject.Injector, res *FaultModeResult) {
	cs := cl.Client.Stats()
	res.Retries, res.Timeouts, res.Redirects = cs.Retries, cs.Timeouts, cs.Redirects
	res.StaleReplies, res.MapRefreshes, res.NoQuorumWaits = cs.StaleReplies, cs.MapRefreshes, cs.NoQuorumWaits
	res.DroppedFrames = cl.Fabric.DroppedFrames()
	for _, n := range cl.Nodes {
		os := n.OSD.Stats()
		res.RepRetries += os.RepRetries
		res.RepAborts += os.RepAborts
		res.ScrubErrors += os.ScrubErrors
		res.ScrubRepairs += os.ScrubRepairs
		res.DegradedWrites += os.DegradedWrites
		res.NoQuorumRejects += os.NoQuorumRejects
		res.DegradedPGsHealed += os.DegradedPGsHealed
		res.ObjectsRecovered += os.ObjectsRecovered
		res.PGsBackfilled += os.PGsBackfilled
		res.RecoveryBytes += os.RecoveryBytes
		res.RecoveryBackoffs += os.RecoveryBackoffs
		res.RecoveryThrottle += os.RecoveryThrottle
		res.InjectedWriteErrors += n.Store.Stats().InjectedErrors
		if n.Bridge == nil {
			continue
		}
		ps := n.Bridge.Proxy.Stats()
		res.FallbackTxns += ps.FallbackTxns
		res.DataPlaneTxns += ps.DataPlaneTxns
		res.DMAErrors += n.Bridge.EngUp.Stats().Errors + n.Bridge.EngDown.Stats().Errors
		if br := n.Bridge.Proxy.Breaker(); br != nil {
			bs := br.Stats()
			res.BreakerOpens += bs.Opens
			res.BreakerHalfOpens += bs.HalfOpens
			res.BreakerCloses += bs.Closes
			res.ProbeSuccesses += bs.ProbeSuccesses
			res.ProbeFailures += bs.ProbeFailures
		}
	}
	if len(cl.Nodes) > 0 && cl.Nodes[0].Bridge != nil {
		if br := cl.Nodes[0].Bridge.Proxy.Breaker(); br != nil {
			res.BreakerFinal = br.State().String()
		}
	}
	for _, m := range cl.Registry.All() {
		st := m.Stats()
		res.SessionResets += st.SessionResets
		res.Redeliveries += st.Redeliveries
	}
	for _, c := range inj.Counters().Snapshot() {
		if c.Name == "bit_rot_objects" {
			res.BitRotObjects = c.Value
		} else {
			res.InjectedEvents += c.Value
		}
	}
}

// faultDipRecovery computes the clean-second mean, the worst in-window
// second relative to it, and the time from the last window's close until
// throughput is back within 80% of the clean mean.
func faultDipRecovery(mbps []float64, plan FaultPlan) (clean, dipPct, recovery float64) {
	type window struct{ from, to int }
	var windows []window
	lastEnd := 0
	for _, ev := range plan.Events {
		from := int(ev.At / sim.Duration(sim.Second))
		to := from
		if ev.Duration > 0 {
			to = int((ev.At + ev.Duration) / sim.Duration(sim.Second))
		}
		windows = append(windows, window{from, to})
		if to > lastEnd {
			lastEnd = to
		}
	}
	inWindow := func(sec int) bool {
		for _, w := range windows {
			if sec >= w.from && sec <= w.to {
				return true
			}
		}
		return false
	}
	var sum float64
	var n int
	for sec, v := range mbps {
		if !inWindow(sec) {
			sum += v
			n++
		}
	}
	if n > 0 {
		clean = sum / float64(n)
	}
	dip := clean
	for sec, v := range mbps {
		if inWindow(sec) && v < dip {
			dip = v
		}
	}
	dipPct = 100
	if clean > 0 {
		dipPct = dip / clean * 100
	}
	recovery = -1
	for sec := lastEnd + 1; sec < len(mbps); sec++ {
		if mbps[sec] >= 0.8*clean {
			recovery = float64(sec - lastEnd)
			break
		}
	}
	return clean, dipPct, recovery
}
