# Development entry points. `make ci` is the gate every change must pass:
# vet + build + the full test suite under the race detector (the parallel
# experiment harness is exercised by tests, so -race guards the per-cell
# isolation contract).

.PHONY: ci test bench hostbench hostbench-quick snapshots chaos-smoke profile-smoke exec-smoke policy-smoke fleet-smoke obs-smoke fuzz

ci:
	./scripts/ci.sh

test:
	go test ./...

# Fast chaos-determinism check: the invariance suite, the chaos cells of
# the equivalence matrix, and the kernel's injection-semantics tests.
chaos-smoke:
	go test ./internal/experiments -run 'TestChaosInvariance' -count 1
	go test ./internal/experiments -run 'TestExecEquivalence/chaos' -count 1
	go test ./internal/kernel -run 'TestChaos|TestBlockingRead|TestSigactionReportsFlags' -count 1

# Quick telemetry sanity pass: profile the microbenchmark under
# lazypoline, run the microbenchmark's telemetry cells of the equivalence
# matrix, and show the hottest folded stacks (see the EXPERIMENTS.md
# telemetry walkthrough).
profile-smoke:
	go test ./internal/experiments -run 'TestExecEquivalence/^microbench$$//telemetry' -count 1
	go run ./cmd/lazysim run -builtin microbench -mech lazypoline -trace=false \
		-stats=false -profile-out /tmp/profile_smoke.folded
	head -10 /tmp/profile_smoke.folded

# Fast execution-engine check: the CPU and memory unit tests (Lockstep
# included) under -race, the microbenchmark and JIT cells of the
# equivalence matrix, and a small `lazysim cpu` run that must clear its
# fast-vs-reference floors, the load/store sweep's pinned at 2.0x (the
# raw register loop is a counted loop, retired in closed form: its fast
# side is too short to take a ratio against).
exec-smoke:
	go test -race ./internal/cpu ./internal/mem -count 1
	go test ./internal/experiments -run 'TestExecEquivalence/^(microbench|jit)$$' -count 1
	go run ./cmd/lazysim cpu -steps 1000000 -iters 20000 -memsweeps 200 -repeat 2 -out /tmp/exec_smoke_BENCH_cpu.json

# Fast syscall-policy check: the kernel policy and seccomp-hardening
# tests, the invariance suite, the policy-off cells of the equivalence
# matrix, and one attack demo per layer.
policy-smoke:
	go test ./internal/kernel -run 'TestPolicy|TestSeccompUnknown|TestSeccompFaulting|TestSeccompPrecedence|TestChaosRetryInjection' -count 1
	go test ./internal/experiments -run 'TestPolicyInvariance(Attacks|Benign)' -count 1
	go test ./internal/experiments -run 'TestExecEquivalence/(microbench|attack)//policy-off' -count 1
	go run ./cmd/lazysim run -builtin attack-jit -mech lazypoline -policy regions -trace=false -stats=false
	go run ./cmd/lazysim run -builtin attack-seq -mech sud -policy sfip -trace=false -stats=false

# Fast fleet-robustness check: the balancer/generator/drill suite, the
# kill-drill acceptance gate and same-seed determinism at sweep scale, and
# a two-drill `lazysim fleet` run.
fleet-smoke:
	go test ./internal/fleet -count 1
	go test ./internal/experiments -run 'TestFleetBench' -count 1
	go run ./cmd/lazysim fleet -requests 80 -drills none,kill -mechs baseline,lazypoline \
		-out /tmp/fleet_smoke_BENCH_fleet.json

# Fast observability check: the tracer / SLO / exemplar unit suites
# under -race, the fleet trace acceptance gate (inertness, determinism,
# kill-drill exemplar), and one traced `lazysim fleet` cell rendered
# through `lazysim trace`'s request-tree view.
obs-smoke:
	go test -race ./internal/otrace -count 1
	go test -race ./internal/telemetry -run 'TestHistogramExemplar' -count 1
	go test ./internal/fleet -run 'TestFleetTrace' -count 1
	go run ./cmd/lazysim fleet -requests 60 -rate 200 -drills kill -mechs lazypoline \
		-out /tmp/obs_smoke_BENCH_fleet.json -trace-out /tmp/obs_smoke_trace.jsonl \
		-slo-out /tmp/obs_smoke_slo.txt
	go run ./cmd/lazysim trace -requests -o /tmp/obs_smoke_trees.txt /tmp/obs_smoke_trace.jsonl
	head -25 /tmp/obs_smoke_trees.txt

# Every fuzz target for FUZZTIME each (scripts/ci.sh runs 5s of each):
#   FuzzDecode: the isa decoder must survive arbitrary bytes.
#   FuzzAccess: the single-walk ReadAt/WriteAt must match the
#     byte-at-a-time oracle on arbitrary spans and PKRU values.
#   FuzzDemandZeroModel: random mapping/access programs against the eager
#     flat model (DESIGN.md §17).
#   FuzzCountedLoop: the closed form, plain chained execution and plain
#     Step must agree on any counter, budget sequence and preceding NOP
#     run (DESIGN.md §18).
#   FuzzBlockBuild: windowed and NOP-run-aliased blocks must equal a
#     decode of the whole page remainder on arbitrary code pages
#     (DESIGN.md §17).
#   FuzzStackRun: push/pop/reload runs of any length near page edges,
#     under every page protection and budgets ending mid-run, must agree
#     with Step at every block boundary under Lockstep (DESIGN.md §11).
#   FuzzFindSyscallSites: the padding-skipping linear sweep must find the
#     sites the per-offset sweep finds, on arbitrary bytes.
#   FuzzTaskAccessors: random mapping changes, kernel-side spans and guest
#     stores through the task's D-TLB against the locked AddressSpace path
#     (DESIGN.md §19).
FUZZTIME ?= 30s
fuzz:
	go test ./internal/isa/ -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	go test ./internal/mem/ -run '^$$' -fuzz FuzzAccess -fuzztime $(FUZZTIME)
	go test ./internal/mem/ -run '^$$' -fuzz FuzzDemandZeroModel -fuzztime $(FUZZTIME)
	go test ./internal/cpu/ -run '^$$' -fuzz FuzzCountedLoop -fuzztime $(FUZZTIME)
	go test ./internal/cpu/ -run '^$$' -fuzz FuzzBlockBuild -fuzztime $(FUZZTIME)
	go test ./internal/cpu/ -run '^$$' -fuzz FuzzStackRun -fuzztime $(FUZZTIME)
	go test ./internal/zpoline/ -run '^$$' -fuzz FuzzFindSyscallSites -fuzztime $(FUZZTIME)
	go test ./internal/kernel/ -run '^$$' -fuzz FuzzTaskAccessors -fuzztime $(FUZZTIME)

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

# Regenerate the machine-readable benchmark snapshots (BENCH_*.json) and
# figure5_output.txt from the one snapshot table in cmd/lazysim.
snapshots:
	go run ./cmd/lazysim snapshots
