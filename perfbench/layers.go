package main

import (
	"doceph/internal/bluestore"
	"doceph/internal/cluster"
	"doceph/internal/core"
	"doceph/internal/messenger"
	"doceph/internal/osd"
	"doceph/internal/sim"
	"doceph/internal/telemetry"
)

// counters is a snapshot of the cumulative per-layer counters of a set of
// clusters, read through their public Stats accessors. Subtracting the
// snapshot taken at the warmup boundary gives the measured window's work.
type counters struct {
	clientOps, retries, timeouts int64
	msgsSent, bytesSent          int64
	repOps, repRetries           int64
	txns, kvSyncs                int64
	deferred, direct             int64
	fallbackTxns, controlCalls   int64
	transfers, dmaErrors         int64
	dmaWait, engBusy             sim.Duration
	engQueues                    int64
	rpcCalls                     int64
	bufWait                      sim.Duration
}

func snapshot(cls []*cluster.Cluster) counters {
	var c counters
	for _, cl := range cls {
		st := cl.Client.Stats()
		c.clientOps += st.Ops
		c.retries += st.Retries
		c.timeouts += st.Timeouts
		for _, m := range cl.Registry.All() {
			ms := m.Stats()
			c.msgsSent += ms.Sent
			c.bytesSent += ms.BytesSent
		}
		for _, n := range cl.Nodes {
			os := n.OSD.Stats()
			c.repOps += os.RepOpsServed
			c.repRetries += os.RepRetries
			bs := n.Store.Stats()
			c.txns += bs.Transactions
			c.kvSyncs += bs.KVSyncCycles
			c.deferred += bs.DeferredWrites
			c.direct += bs.DirectWrites
			if n.Bridge == nil {
				continue
			}
			ps := n.Bridge.Proxy.Stats()
			c.fallbackTxns += ps.FallbackTxns
			c.controlCalls += ps.ControlCalls
			es := n.Bridge.EngUp.Stats()
			c.transfers += es.Transfers
			c.dmaErrors += es.Errors
			c.dmaWait += es.TotalWait
			c.engBusy += es.Busy
			c.engQueues += int64(n.Bridge.EngUp.NumQueues())
			c.rpcCalls += n.Bridge.RPCDPU.Stats().CallsSent
			wait, _ := n.DPU.Buffers.WaitStats()
			c.bufWait += wait
		}
	}
	return c
}

// sub returns the work done between snapshot b and snapshot c. The queue
// count is a configuration, not a counter, so it is kept.
func (c counters) sub(b counters) counters {
	return counters{
		clientOps: c.clientOps - b.clientOps, retries: c.retries - b.retries,
		timeouts: c.timeouts - b.timeouts, msgsSent: c.msgsSent - b.msgsSent,
		bytesSent: c.bytesSent - b.bytesSent, repOps: c.repOps - b.repOps,
		repRetries: c.repRetries - b.repRetries, txns: c.txns - b.txns,
		kvSyncs: c.kvSyncs - b.kvSyncs, deferred: c.deferred - b.deferred,
		direct: c.direct - b.direct, fallbackTxns: c.fallbackTxns - b.fallbackTxns,
		controlCalls: c.controlCalls - b.controlCalls, transfers: c.transfers - b.transfers,
		dmaErrors: c.dmaErrors - b.dmaErrors, dmaWait: c.dmaWait - b.dmaWait,
		engBusy: c.engBusy - b.engBusy, engQueues: c.engQueues,
		rpcCalls: c.rpcCalls - b.rpcCalls, bufWait: c.bufWait - b.bufWait,
	}
}

// mergeCPU merges the host (or DPU) CPU accounting of every storage node
// of the clusters, as Cluster.HostCPUMerged and DPUCPUMerged do for one.
func mergeCPU(cls []*cluster.Cluster, dpu bool) telemetry.MergedCPU {
	var stats []sim.CPUStats
	for _, cl := range cls {
		for _, n := range cl.Nodes {
			switch {
			case !dpu:
				stats = append(stats, n.HostCPU.Stats())
			case n.DPU != nil:
				stats = append(stats, n.DPU.CPU.Stats())
			}
		}
	}
	return telemetry.Merge(stats...)
}

func ms(d sim.Duration) float64 { return d.Seconds() * 1e3 }

// msPerOp spreads a total duration over ops, in milliseconds.
func msPerOp(d sim.Duration, ops int64) float64 { return ratio(int64(d), ops) / 1e6 }

// ratio divides two counts, such as work by completed ops; 0 when the
// divisor is not positive.
func ratio(n, d int64) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// armModel derives one arm's modelled metrics. CPU accounting covers the
// measured window, whose completed ops are measuredOps; the counters d
// cover counterWindow, whose ops the client counted. Host CPU is normalised
// to one core and summed over the storage nodes, as in the paper's Fig. 7.
// The messenger and OSD run on the daemon CPU: the host in Baseline, the
// DPU in DoCeph; BlueStore always runs on the host.
func armModel(mode cluster.Mode, iops float64, avgLat sim.Duration, measuredOps int64,
	cls []*cluster.Cluster, d counters, counterWindow sim.Duration) map[string]float64 {
	arm := mode.String()
	host := mergeCPU(cls, false)
	daemon := host
	m := map[string]float64{
		arm + ".host_cpu_pct": host.SingleCoreUtilization() * 100,
		arm + ".iops":         iops,
		arm + ".lat_avg_ms":   ms(avgLat),
	}
	if mode == cluster.DoCeph {
		daemon = mergeCPU(cls, true)
		m["doceph.dpu_cpu_pct"] = daemon.SingleCoreUtilization() * 100
	}
	ops := d.clientOps
	m["messenger."+arm+".cpu_share"] = daemon.ShareOf(messenger.ThreadCat)
	m["messenger."+arm+".switches_per_op"] = ratio(daemon.SwitchesByCat[messenger.ThreadCat], measuredOps)
	m["messenger."+arm+".msgs_per_op"] = ratio(d.msgsSent, ops)
	m["messenger."+arm+".bytes_per_op"] = ratio(d.bytesSent, ops)
	m["osd."+arm+".cpu_share"] = daemon.ShareOf(osd.ThreadCat)
	m["osd."+arm+".rep_ops_per_op"] = ratio(d.repOps, ops)
	m["osd."+arm+".rep_retries"] = float64(d.repRetries)
	m["bluestore."+arm+".cpu_share"] = host.ShareOf(bluestore.ThreadCat)
	m["bluestore."+arm+".kv_sync_per_txn"] = ratio(d.kvSyncs, d.txns)
	m["bluestore."+arm+".deferred_write_frac"] = ratio(d.deferred, d.deferred+d.direct)
	m["rados."+arm+".retries"] = float64(d.retries)
	m["rados."+arm+".timeouts"] = float64(d.timeouts)
	if mode == cluster.Baseline {
		// Table 2: messenger over ObjectStore context switches on the host.
		m["paper.table2_switch_ratio"] = ratio(host.SwitchesByCat[messenger.ThreadCat],
			host.SwitchesByCat[bluestore.ThreadCat])
		return m
	}

	var b core.Breakdown
	for _, cl := range cls {
		nb := cl.ProxyBreakdownMerged()
		b.Requests += nb.Requests
		b.HostWrite += nb.HostWrite
		b.DMA += nb.DMA
		b.DMAWait += nb.DMAWait
	}
	hostWrite, dma, dmaWait := b.Avg()
	m["core.host_write_ms"] = ms(hostWrite)
	m["core.dma_ms"] = ms(dma)
	m["core.dma_wait_ms"] = ms(dmaWait)
	m["core.fallback_txns"] = float64(d.fallbackTxns)
	m["core.control_calls_per_op"] = ratio(d.controlCalls, ops)
	if d.engQueues > 0 && counterWindow > 0 {
		m["doca.engine_occupancy"] = float64(d.engBusy) / (float64(d.engQueues) * float64(counterWindow))
	}
	m["doca.transfers_per_op"] = ratio(d.transfers, ops)
	if d.transfers > 0 {
		m["doca.wait_ms"] = ms(d.dmaWait / sim.Duration(d.transfers))
	}
	m["doca.errors"] = float64(d.dmaErrors)
	m["dpu.bufpool_wait_ms"] = msPerOp(d.bufWait, ops)
	m["rpcchan.calls_per_op"] = ratio(d.rpcCalls, ops)
	return m
}
