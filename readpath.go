package doceph

import (
	"fmt"
	"math/rand"

	"doceph/internal/radosbench"
	"doceph/internal/rbd"
	"doceph/internal/report"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// ---------------------------------------------------------------------------
// Read-path ablation: op mix x replica reads x DPU read cache x deployment.

// readPathSize is the object size of the ablation grid: small enough that
// per-op overheads (the DPU read cache's target) dominate, matching the
// smallops extension's regime.
const readPathSize = 64 << 10

// ReadPathResult is one row of the read-path ablation.
type ReadPathResult struct {
	Name       string
	ReadPct    int // 100 = pure read
	QueueDepth int
	ReadStats  ClassStats
	WriteStats ClassStats
	Window     Duration
	HostUtil   float64
	// BalancedReads counts reads the client dispatched to a non-primary
	// replica (0 with balancing off).
	BalancedReads int64
	// CacheHits/CacheMisses sum the DPU-side read cache counters over all
	// nodes (0 on Baseline or with the cache off).
	CacheHits   int64
	CacheMisses int64
}

// RunReadPathAblation measures the opened read path: pure-read, 70/30 and
// 50/50 mixes on both deployments, each with replica-read balancing and
// (DoCeph only) the DPU-side read cache toggled, plus queue-depth arms on
// the pure-read workload. Every knob defaults off; the first row of each
// deployment is the unmodified configuration.
func RunReadPathAblation(opts ExpOptions) ([]ReadPathResult, error) {
	opts = opts.withDefaults()

	type variant struct {
		name    string
		mode    Mode
		readPct int
		qd      int
		balance bool
		cache   bool
		pop     radosbench.Popularity
	}
	var variants []variant
	for _, mode := range []Mode{Baseline, DoCeph} {
		prefix := "baseline"
		if mode == DoCeph {
			prefix = "doceph"
		}
		for _, pct := range []int{100, 70, 50} {
			mix := fmt.Sprintf("%dR/%dW", pct, 100-pct)
			variants = append(variants,
				variant{name: prefix + " " + mix, mode: mode, readPct: pct},
				variant{name: prefix + " " + mix + " +balance", mode: mode, readPct: pct, balance: true})
			if mode == DoCeph {
				variants = append(variants,
					variant{name: prefix + " " + mix + " +cache", mode: mode, readPct: pct, cache: true},
					variant{name: prefix + " " + mix + " +balance+cache", mode: mode, readPct: pct, balance: true, cache: true})
			}
		}
		// Queue-depth arms: the closed loop widened to 4 slots per worker.
		variants = append(variants,
			variant{name: prefix + " 100R/0W qd=4", mode: mode, readPct: 100, qd: 4})
		// Popularity arms (the scale-out PR's skew models on the single
		// cluster): pure reads under Zipf and hotspot skew, with replica-read
		// balancing as the mitigation and (DoCeph) the read cache — a hot set
		// is exactly what DPU-side DDR can absorb.
		zipf := radosbench.Popularity{Kind: radosbench.PopZipf}
		hot := radosbench.Popularity{Kind: radosbench.PopHotspot}
		variants = append(variants,
			variant{name: prefix + " 100R/0W zipf", mode: mode, readPct: 100, pop: zipf},
			variant{name: prefix + " 100R/0W zipf+balance", mode: mode, readPct: 100, pop: zipf, balance: true},
			variant{name: prefix + " 100R/0W hotspot", mode: mode, readPct: 100, pop: hot})
		if mode == DoCeph {
			variants = append(variants,
				variant{name: prefix + " 100R/0W zipf+cache", mode: mode, readPct: 100, pop: zipf, cache: true})
		}
	}

	arms := make([]arm, len(variants))
	for i, v := range variants {
		a := arm{name: fmt.Sprintf("readpath %q", v.name), cfg: ClusterConfig{Mode: v.mode},
			bench: BenchConfig{ObjectBytes: readPathSize, QueueDepth: v.qd, Op: ReadWorkload, Popularity: v.pop}}
		a.cfg.Client.BalanceReads = v.balance
		a.cfg.Bridge.ReadCache.Enable = v.cache
		if v.readPct < 100 {
			a.bench.Op = MixedWorkload
			a.bench.ReadPercent = v.readPct
		}
		arms[i] = a
	}
	rs, err := runArms(opts, arms)
	if err != nil {
		return nil, err
	}
	out := make([]ReadPathResult, len(variants))
	for i, r := range rs {
		out[i] = ReadPathResult{
			Name:          variants[i].name,
			ReadPct:       variants[i].readPct,
			QueueDepth:    variants[i].qd,
			ReadStats:     r.bench.ReadStats,
			WriteStats:    r.bench.WriteStats,
			Window:        r.bench.Window,
			HostUtil:      r.hostUtil,
			BalancedReads: r.balancedReads,
			CacheHits:     r.cacheHits,
			CacheMisses:   r.cacheMisses,
		}
	}
	return out, nil
}

// ReadPathTable renders the read-path ablation.
func ReadPathTable(rows []ReadPathResult) *report.Table {
	t := &report.Table{
		Title: "Read path: op mix x replica reads x DPU read cache x deployment",
		Header: []string{"variant", "read IOPS", "read p99 (ms)", "write IOPS",
			"write p99 (ms)", "host CPU", "balanced", "cache hit"},
	}
	for _, r := range rows {
		hit := "-"
		if r.CacheHits+r.CacheMisses > 0 {
			hit = report.Pct(float64(r.CacheHits) / float64(r.CacheHits+r.CacheMisses))
		}
		wIOPS, wP99 := "-", "-"
		if r.WriteStats.Ops > 0 {
			wIOPS = report.F2(r.WriteStats.IOPS(r.Window))
			wP99 = report.F2(r.WriteStats.P99.Seconds() * 1e3)
		}
		t.AddRow(r.Name,
			report.F2(r.ReadStats.IOPS(r.Window)),
			report.F2(r.ReadStats.P99.Seconds()*1e3),
			wIOPS, wP99,
			report.Pct(r.HostUtil),
			fmt.Sprint(r.BalancedReads), hit)
	}
	t.AddNote("64KB objects; balance = read-from-secondary hashing, cache = DPU-side object read cache (both default off); zipf/hotspot = skewed read popularity over the prepopulated set (uniform otherwise)")
	return t
}

// ---------------------------------------------------------------------------
// Block-device comparison: the RBD-style striped device on both deployments.

// Block-device workload geometry: a 32 MiB volume striped over 4 MiB
// objects, an 8 MiB bulk load, then two passes of random 16 KiB reads (the
// second pass re-reads the same offsets, so the client page cache can
// absorb it entirely).
const (
	bdVolBytes  = 32 << 20
	bdObjBytes  = 4 << 20
	bdBulkBytes = 8 << 20
	bdReadBytes = 16 << 10
	bdReads     = 128
)

// BlockDeviceResult is one row of the block-device comparison.
type BlockDeviceResult struct {
	Name string
	// BulkWrite is the virtual time to stream the 8 MiB sequential load.
	BulkWrite Duration
	// ColdRead/WarmRead are the virtual times of the two random-read
	// passes; with the client cache on, WarmRead never reaches the cluster.
	ColdRead Duration
	WarmRead Duration
	// CacheHits is the client page cache's hit count (0 with it off).
	CacheHits int64
	// Intact reports that every read returned byte-identical data.
	Intact   bool
	HostUtil float64
}

// RunBlockDeviceComparison runs the striped block device's write + random
// read workload on both deployments with the client-side write-through
// cache off and on. The read offsets are a pure function of the seed, so
// all four arms replay the identical access pattern.
func RunBlockDeviceComparison(opts ExpOptions) ([]BlockDeviceResult, error) {
	opts = opts.withDefaults()

	type variant struct {
		name  string
		mode  Mode
		cache bool
	}
	variants := []variant{
		{name: "baseline rbd", mode: Baseline},
		{name: "baseline rbd +cache", mode: Baseline, cache: true},
		{name: "doceph rbd", mode: DoCeph},
		{name: "doceph rbd +cache", mode: DoCeph, cache: true},
	}
	out := make([]BlockDeviceResult, len(variants))
	err := runParallel(len(variants), func(i int) error {
		v := variants[i]
		res, err := runBlockDeviceCell(v.mode, v.cache, opts.Seed)
		if err != nil {
			return fmt.Errorf("blockdevice %q: %w", v.name, err)
		}
		res.Name = v.name
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func runBlockDeviceCell(mode Mode, clientCache bool, seed int64) (BlockDeviceResult, error) {
	cl := NewCluster(ClusterConfig{Mode: mode, Seed: seed})
	defer cl.Shutdown()

	var res BlockDeviceResult
	var runErr error
	done := false
	cl.Env.Spawn("rbd-bench", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("rbd-bench", "client"))
		dev, err := rbd.Create(p, cl.Client, "bench-vol", bdVolBytes, rbd.DeviceConfig{
			ObjectBytes: bdObjBytes,
			Cache:       rbd.CacheConfig{Enable: clientCache},
		})
		if err != nil {
			runErr = err
			return
		}

		bulk := make([]byte, bdBulkBytes)
		for i := range bulk {
			bulk[i] = byte(i*2654435761 + i>>8)
		}
		start := p.Now()
		if runErr = dev.WriteAt(p, wire.FromBytes(bulk), 0); runErr != nil {
			return
		}
		res.BulkWrite = p.Now().Sub(start)

		// Two identical passes of random reads inside the loaded region;
		// offsets come from the cell's own seeded source, not sim RNG, so
		// every arm sees the same pattern.
		offs := make([]int64, bdReads)
		r := rand.New(rand.NewSource(seed))
		for i := range offs {
			offs[i] = int64(r.Intn(bdBulkBytes-bdReadBytes)) &^ (bdReadBytes - 1)
		}
		res.Intact = true
		for pass := 0; pass < 2; pass++ {
			start = p.Now()
			for _, off := range offs {
				bl, err := dev.ReadAt(p, off, bdReadBytes)
				if err != nil {
					runErr = err
					return
				}
				want := wire.FromBytes(bulk[off : off+bdReadBytes])
				if bl.CRC32C() != want.CRC32C() {
					res.Intact = false
				}
			}
			if pass == 0 {
				res.ColdRead = p.Now().Sub(start)
			} else {
				res.WarmRead = p.Now().Sub(start)
			}
		}
		res.CacheHits = dev.Stats().CacheHits
		done = true
	})
	if err := cl.Env.RunUntil(sim.Time(10 * 60 * sim.Second)); err != nil {
		return res, err
	}
	if runErr != nil {
		return res, runErr
	}
	if !done {
		return res, fmt.Errorf("block device run did not complete")
	}
	res.HostUtil = cl.HostCPUMerged().SingleCoreUtilization()
	return res, nil
}

// BlockDeviceTable renders the block-device comparison.
func BlockDeviceTable(rows []BlockDeviceResult) *report.Table {
	t := &report.Table{
		Title: "RBD-style striped block device: 8MiB load + 2x128 random 16KiB reads",
		Header: []string{"variant", "bulk write (ms)", "cold reads (ms)",
			"warm reads (ms)", "cache hits", "intact", "host CPU"},
	}
	for _, r := range rows {
		t.AddRow(r.Name,
			report.F2(r.BulkWrite.Seconds()*1e3),
			report.F2(r.ColdRead.Seconds()*1e3),
			report.F2(r.WarmRead.Seconds()*1e3),
			fmt.Sprint(r.CacheHits), fmt.Sprint(r.Intact),
			report.Pct(r.HostUtil))
	}
	t.AddNote("32MiB volume over 4MiB stripe objects; +cache = client-side write-through page cache (default off) — the bulk load warms it, so cached arms absorb both read passes client-side")
	return t
}
