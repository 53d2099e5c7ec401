# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: all build test test-race race chaos-smoke selfheal-smoke parallel-kernel-smoke readpath-smoke scaleout128-smoke streaming-smoke bench bench-smoke cover microbench results quick examples vet fmt trace

all: build vet test test-race chaos-smoke bench-smoke cover

build:
	go build ./...

vet:
	go vet ./...

fmt:
	gofmt -l . && test -z "$$(gofmt -l .)"

test:
	go test ./...

# The simulation is single-goroutine per cluster by design; the race run
# guards the few places real goroutines meet (env driver, queues). -short
# skips the 128-OSD sweeps and the experiment-table golden; the root
# package alone outlasts go test's 10-minute default timeout under -race.
test-race:
	go test -race -short -timeout 30m ./...

race: test-race

# A short chaos run: full default fault plan against both deployments,
# integrity-checked. Exercises the fault-injection path end to end.
chaos-smoke:
	go run ./cmd/docephbench -exp chaos -seconds 20 -threads 4

# Self-healing path under the race detector: OSD crash + DPU fault through
# the circuit breaker, degraded writes and recovery QoS, plus the ablation.
# 30 s is the experiment floor (the crash window must outlast the 5 s
# heartbeat grace), so this is the shortest honest run.
selfheal-smoke:
	go run -race ./cmd/docephbench -exp selfheal -seconds 30 -threads 4

# The partitioned parallel kernel under the race detector: the 32-OSD
# multi-rack scale-out at 4 kernel workers (plus the serial reference the
# determinism assertion compares against), short window. Any data race in
# the barrier/delivery machinery or any simulated-result drift across
# worker counts fails the run.
parallel-kernel-smoke:
	go run -race ./cmd/docephbench -exp scaleout -quick -sim-workers 1,4

# The 128-OSD multi-rack cluster under the race detector: the popularity
# ablation (uniform/Zipf/hotspot x balance-reads) with imbalance metrics,
# plus the worker-count determinism sweep on the Zipf arm (byte-identical
# results enforced inside the experiment), reduced windows.
scaleout128-smoke:
	go run -race ./cmd/docephbench -exp scaleout128 -quick -sim-workers 1,4

# The read path under the race detector: the op-mix ablation (read/70:30/
# 50:50 x replica-read balancing x DPU read cache x deployment, plus the
# queue-depth arm) and the striped block-device comparison with its CRC
# readback, quick windows against both deployments.
readpath-smoke:
	go run -race ./cmd/docephbench -exp readpath -quick -threads 4

# The streaming data plane under the race detector: the store-and-forward
# vs chunk-pipelining ablation (4-64MB objects x credit windows x both
# deployments), with the engagement self-checks enforced by the runner.
streaming-smoke:
	go run -race ./cmd/docephbench -exp streaming -quick -threads 4

# The paper's full methodology (60 s windows): every table and figure.
results:
	go run ./cmd/docephbench -exp all | tee results_full.txt

# Fast shape-preserving runs for CI.
quick:
	go run ./cmd/docephbench -quick -exp all

# Simulator throughput harness: runs the radosbench sweep and writes
# events/sec, ns/op and allocs/op to BENCH_sim.json (compared against the
# recorded pre-optimization baseline). `-rebaseline` resets the baseline.
# Sweep cells run on one worker per core with deterministic ordered output;
# `-workers 1` forces the serial sweep (per-scenario alloc attribution).
bench:
	go run ./cmd/simbench -out BENCH_sim.json

# ~30 s smoke variant wired into `all`: runs the reduced sweep (tracing
# disabled) and fails if events/sec collapses versus the BENCH_sim.json
# record — without touching the file. This is the guard that keeps the
# tracing hooks free when tracing is off.
bench-smoke:
	go run ./cmd/simbench -smoke -guard BENCH_sim.json

# Per-package statement-coverage floors for the offload-critical packages
# (core, doca, osd, messenger, sim, perf); see scripts/covergate.sh for
# the recorded floors.
cover:
	./scripts/covergate.sh

# Traced benchmark: per-stage CPU/latency tables for both deployments plus
# Chrome trace_event JSON for chrome://tracing or ui.perfetto.dev.
trace:
	go run ./cmd/docephbench -trace -quick -trace-out trace

# Go micro-benchmarks (wire codec, heap, etc.).
microbench:
	go test -bench=. -benchmem -benchtime=1x ./...

examples:
	go run ./examples/quickstart
	go run ./examples/cpubreakdown
	go run ./examples/dmapipeline
	go run ./examples/failover
	go run ./examples/blockdevice
	go run ./examples/dashboard
	go run ./examples/chaos -seconds 20 -threads 4
