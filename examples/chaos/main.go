// chaos: runs the deterministic fault-injection experiment — the same
// seeded fault plan (packet loss, latency spikes, an OSD crash/restart,
// slow and failing disk I/O, replica bit-rot, DPU DMA errors) against the
// Baseline and DoCeph deployments — and reports how the data plane rode it
// out: retries, session resets, scrub repairs, throughput dip and recovery,
// and end-to-end payload integrity.
//
// The run is fully reproducible: the same seed and plan produce the same
// result, byte for byte. Change -seed to explore a different fault history.
package main

import (
	"flag"
	"fmt"
	"log"

	"doceph"
)

func main() {
	seconds := flag.Int("seconds", 60, "workload length in simulated seconds")
	threads := flag.Int("threads", 8, "closed-loop client workers")
	seed := flag.Int64("seed", 42, "seed for the clusters and every fault draw")
	flag.Parse()

	opts := doceph.ExpOptions{
		Duration: doceph.Duration(*seconds) * doceph.Second,
		Threads:  *threads,
		Seed:     *seed,
	}
	plan := doceph.DefaultChaosPlan(opts.Duration)
	fmt.Printf("fault plan %q (%d events), %ds workload, seed %d\n",
		plan.Name, len(plan.Events), *seconds, *seed)
	for _, ev := range plan.Events {
		fmt.Printf("  t=%5.1fs %-12s", ev.At.Seconds(), ev.Kind)
		if ev.Duration > 0 {
			fmt.Printf(" for %4.1fs", ev.Duration.Seconds())
		}
		fmt.Println()
	}

	r, err := doceph.RunChaos(opts, 0, &plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(doceph.ChaosTable(r))

	for _, m := range []doceph.FaultModeResult{r.Baseline, r.DoCeph} {
		verdict := "clean"
		if m.IntegrityOK != m.IntegrityChecked || m.Errors > 0 {
			verdict = fmt.Sprintf("%d errors, %d/%d reads verified",
				m.Errors, m.IntegrityOK, m.IntegrityChecked)
		}
		fmt.Printf("%-8s: %d ops, integrity %s; worst dip %.0f%% of clean throughput, recovered in %.0fs\n",
			m.Mode, m.Ops, verdict, m.DipPct, m.RecoverySeconds)
	}
}
