# Development entry points. `make ci` is the gate every change must pass:
# vet + build + the full test suite under the race detector (the parallel
# experiment harness is exercised by tests, so -race guards the per-cell
# isolation contract).

.PHONY: ci test bench hostbench hostbench-quick snapshots chaos-smoke profile-smoke tlb-smoke chain-smoke policy-smoke fleet-smoke obs-smoke par-smoke fuzz

ci:
	./scripts/ci.sh

test:
	go test ./...

# Fast chaos-determinism check: the invariance suite plus the kernel's
# injection-semantics tests (scripts/ci.sh runs the cross-binary diffs).
chaos-smoke:
	go test ./internal/experiments -run 'TestChaosInvariance' -count 1
	go test ./internal/kernel -run 'TestChaos|TestBlockingRead|TestSigactionReportsFlags' -count 1

# Quick telemetry sanity pass: profile the microbenchmark under
# lazypoline, run the inertness suite's fastest matrix, and show the
# hottest folded stacks (see the EXPERIMENTS.md telemetry walkthrough).
profile-smoke:
	go test ./internal/experiments -run 'TestTelemetryInvarianceMicrobench' -count 1
	go run ./cmd/runsim -builtin microbench -mech lazypoline -trace=false \
		-stats=false -profile-out /tmp/profile_smoke.folded
	head -10 /tmp/profile_smoke.folded

# Fast data-fast-path check: the TLB/superblock unit tests under -race,
# the cheapest invariance matrix, and a small cpubench run that must
# clear the fast-path speedup floor (scripts/ci.sh runs the full gate).
tlb-smoke:
	go test -race ./internal/cpu ./internal/mem -count 1
	go test ./internal/experiments -run 'TestTLBInvariance(Microbench|SMC|Telemetry)' -count 1
	go run ./cmd/cpubench -steps 1000000 -iters 20000 -memsweeps 200 -repeat 2 -out /tmp/tlb_smoke_BENCH_cpu.json

# Fast chaining/trace check: the chain, trace and fused-handler unit tests
# (Lockstep included) under -race, the cheapest chain-invariance matrix,
# and a cpubench run that must clear the 2.0x floor the chained fast path
# sustains on the load/store sweep (the raw register loop is a counted
# loop, retired in closed form: its fast side is too short to take a
# ratio against).
chain-smoke:
	go test -race ./internal/cpu -run 'TestChain|TestStepBlock|TestSMC|TestDecodeCache|TestSelfLoop|TestCountedLoop|StackRun|TestLockstep' -count 1
	go test ./internal/experiments -run 'TestChainInvariance(Microbench|SMC|Telemetry)' -count 1
	go run ./cmd/cpubench -steps 1000000 -iters 20000 -memsweeps 200 -repeat 2 -minmemloop 2.0 -out /tmp/chain_smoke_BENCH_cpu.json

# Fast syscall-policy check: the kernel policy and seccomp-hardening
# tests, the invariance matrix, and one attack demo per layer
# (scripts/ci.sh runs the full cross-mechanism diffs).
policy-smoke:
	go test ./internal/kernel -run 'TestPolicy|TestSeccompUnknown|TestSeccompFaulting|TestSeccompPrecedence|TestChaosRetryInjection' -count 1
	go test ./internal/experiments -run 'TestPolicyInvariance' -count 1
	go run ./cmd/runsim -builtin attack-jit -mech lazypoline -policy regions -trace=false -stats=false
	go run ./cmd/runsim -builtin attack-seq -mech sud -policy sfip -trace=false -stats=false

# Fast fleet-robustness check: the balancer/generator/drill suite, the
# kill-drill acceptance gate at sweep scale, and a two-drill fleetbench
# run (scripts/ci.sh adds the same-seed snapshot diff).
fleet-smoke:
	go test ./internal/fleet -count 1
	go test ./internal/experiments -run 'TestFleetBench' -count 1
	go run ./cmd/fleetbench -requests 80 -drills none,kill -mechs baseline,lazypoline \
		-out /tmp/fleet_smoke_BENCH_fleet.json

# Fast observability check: the tracer / SLO / exemplar unit suites
# under -race, the fleet trace acceptance gate (inertness, determinism,
# kill-drill exemplar), and one traced fleetbench cell rendered through
# tracecat's request-tree view (scripts/ci.sh adds the inertness diffs).
obs-smoke:
	go test -race ./internal/otrace -count 1
	go test -race ./internal/telemetry -run 'TestHistogramExemplar' -count 1
	go test ./internal/fleet -run 'TestFleetTrace' -count 1
	go run ./cmd/fleetbench -requests 60 -rate 200 -drills kill -mechs lazypoline \
		-out /tmp/obs_smoke_BENCH_fleet.json -trace-out /tmp/obs_smoke_trace.jsonl \
		-slo-out /tmp/obs_smoke_slo.txt
	go run ./cmd/tracecat -requests -o /tmp/obs_smoke_trees.txt /tmp/obs_smoke_trace.jsonl
	head -25 /tmp/obs_smoke_trees.txt

# Fast parallel-scheduler check (DESIGN.md §15): the kernel round/shard
# suite and the webbench/fleet cross-core byte-identity suites under
# -race, then a small parbench sweep that must keep -cores N
# byte-identical while actually engaging the shards. The -minscale
# ratchet only binds on hosts with >= 8 cores (parbench skips it and
# says so on smaller machines).
par-smoke:
	go test -race ./internal/kernel -run 'TestRound|TestMidRound|TestPlanShards|TestParallel|TestRunParks|TestRunDeadlock' -count 1
	go test -race ./internal/webbench -run 'TestCores' -count 1
	go test -race ./internal/fleet -run 'TestFleetCores' -count 1
	go run ./cmd/parbench -requests 300 -conns 8 -workers 4 -mechs baseline,lazypoline \
		-cores 1,2,4 -repeat 2 -minscale 2.5 -out /tmp/par_smoke_BENCH_parallel.json

# Longer runs of every fuzz target (CI runs a few seconds of each).
fuzz:
	go test ./internal/isa/ -run '^$$' -fuzz FuzzDecode -fuzztime 30s
	go test ./internal/mem/ -run '^$$' -fuzz FuzzAccess -fuzztime 30s
	go test ./internal/mem/ -run '^$$' -fuzz FuzzDemandZeroModel -fuzztime 30s
	go test ./internal/cpu/ -run '^$$' -fuzz FuzzCountedLoop -fuzztime 30s
	go test ./internal/cpu/ -run '^$$' -fuzz FuzzBlockBuild -fuzztime 30s
	go test ./internal/cpu/ -run '^$$' -fuzz FuzzStackRun -fuzztime 30s
	go test ./internal/zpoline/ -run '^$$' -fuzz FuzzFindSyscallSites -fuzztime 30s
	go test ./internal/kernel/ -run '^$$' -fuzz FuzzTaskAccessors -fuzztime 30s

bench:
	go test -bench . -benchtime 1x ./...

# The host-time benchmark (bench/README.md, BENCHMARK.json): how fast the
# simulator runs its six workloads, what it allocates, where the time
# goes. Every cell's simulated result is checked against bench/golden/,
# so a non-zero exit means a result moved or a unit of work failed.
# hostbench is the full run (~2.5 min); hostbench-quick drives the
# no-network workload, the most allocation-sensitive one, the cold path
# and the small-file serving cells (passes of 0.1-0.2 s) for a few seconds
# each, end-to-end metrics only — a correctness drive, too short to
# compare timings with.
hostbench:
	bash bench/run.sh

hostbench-quick:
	bash bench/run.sh -workload sysmicro,fleet_drills,coldstart,f5_small -seconds 3 -trace 0

# Regenerate the machine-readable benchmark snapshots (BENCH_*.json).
snapshots:
	go run ./cmd/macrobench -out BENCH_figure5.json > figure5_output.txt
	go run ./cmd/microbench -out BENCH_table2.json
	go run ./cmd/exhaustive -out BENCH_exhaustive.json
	go run ./cmd/cpubench -out BENCH_cpu.json
	go run ./cmd/policybench -out BENCH_policy.json
	go run ./cmd/fleetbench -out BENCH_fleet.json
	go run ./cmd/parbench -minscale 2.5 -out BENCH_parallel.json
