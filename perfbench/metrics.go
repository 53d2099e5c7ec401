package main

// metricDef is one reported metric. Every workload reports every metric of
// its list; a per-layer metric of a layer the workload does not reach
// (trace stages of the tracer-less scale-out, partitioned-kernel counters of
// the two-node testbed, client percentiles the scale-out does not expose)
// reads 0.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the modelled system, or of the
// simulator, sees. The arm metrics are modelled (simulated time, exact per
// seed); host_wall_s, setup_s, allocs_per_op and peak_rss_mb are host-side.
var endToEnd = []metricDef{
	{"baseline.host_cpu_pct", "%", "lower"},
	{"baseline.iops", "1/s", "higher"},
	{"baseline.lat_avg_ms", "ms", "lower"},
	{"doceph.host_cpu_pct", "%", "lower"},
	{"doceph.dpu_cpu_pct", "%", "lower"},
	{"doceph.iops", "1/s", "higher"},
	{"doceph.lat_avg_ms", "ms", "lower"},
	{"paper_err_pct", "%", "lower"},
	{"host_wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"allocs_per_op", "1/op", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var arms = []string{"baseline", "doceph"}

// perLayer lists the per-layer metrics, prefixed by the module they
// measure.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name, unit, better}) }
	add("sim.events_per_op", "1/op", "lower")
	add("sim.events_per_host_s", "1/s", "higher")
	add("sim.switch_ns", "ns", "lower")
	add("sim.group_rounds_per_s", "1/s", "higher")
	add("sim.group_windows", "count", "lower")
	add("sim.group_delivered", "count", "lower")
	for _, a := range arms {
		add("messenger."+a+".cpu_share", "fraction", "lower")
		add("messenger."+a+".switches_per_op", "1/op", "lower")
		add("messenger."+a+".msgs_per_op", "1/op", "lower")
		add("messenger."+a+".bytes_per_op", "B/op", "lower")
		add("osd."+a+".cpu_share", "fraction", "lower")
		add("osd."+a+".rep_ops_per_op", "1/op", "lower")
		add("osd."+a+".rep_retries", "count", "lower")
		add("bluestore."+a+".cpu_share", "fraction", "lower")
		add("bluestore."+a+".kv_sync_per_txn", "1/txn", "lower")
		add("bluestore."+a+".deferred_write_frac", "fraction", "lower")
	}
	add("core.host_write_ms", "ms", "lower")
	add("core.dma_ms", "ms", "lower")
	add("core.dma_wait_ms", "ms", "lower")
	add("core.fallback_txns", "count", "lower")
	add("core.control_calls_per_op", "1/op", "lower")
	add("doca.engine_occupancy", "fraction", "lower")
	add("doca.transfers_per_op", "1/op", "lower")
	add("doca.wait_ms", "ms", "lower")
	add("doca.errors", "count", "lower")
	add("dpu.bufpool_wait_ms", "ms", "lower")
	add("rpcchan.calls_per_op", "1/op", "lower")
	for _, a := range arms {
		add("rados."+a+".lat_p50_ms", "ms", "lower")
		add("rados."+a+".lat_p99_ms", "ms", "lower")
		for _, c := range []string{"read", "write"} {
			add("rados."+a+"."+c+".iops", "1/s", "higher")
			add("rados."+a+"."+c+".lat_p99_ms", "ms", "lower")
		}
		add("rados."+a+".retries", "count", "lower")
		add("rados."+a+".timeouts", "count", "lower")
	}
	add("rados.ops_failed_frac", "fraction", "lower")
	add("cluster.max_mean_osd_share", "ratio", "lower")
	add("cluster.qd_p99_p50", "ratio", "lower")
	add("cluster.balanced_read_share", "fraction", "higher")
	add("cluster.xrack_msgs_per_op", "1/op", "lower")
	add("paper.table2_switch_ratio", "ratio", "lower")
	for _, a := range arms {
		add("trace."+a+".wait_ms_per_op", "ms", "lower")
		add("trace."+a+".spans_per_op", "1/op", "lower")
		for _, st := range armStages(a) {
			add("trace."+a+"."+st+".self_ms_per_op", "ms", "lower")
			add("trace."+a+"."+st+".cpu_ms_per_op", "ms", "lower")
		}
	}
	add("trace.overhead_pct", "%", "lower")
	add("host.cluster_new_s", "s", "lower")
	add("host.warmup_s", "s", "lower")
	add("host.teardown_s", "s", "lower")
	add("host.gc_cpu_frac", "fraction", "lower")
	add("host.gc_pause_ms", "ms", "lower")
	for _, b := range profBuckets {
		add("prof."+b+"_pct", "%", "lower")
	}
	return out
}
