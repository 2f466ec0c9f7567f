#!/bin/sh
# CI gate: vet, build, then the full test suite under the race detector.
# The -race run is what keeps the parallel experiment harness honest —
# every sweep cell must stay isolated in its own simulated machine.
set -eux

cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: not formatted:" >&2
    echo "$unformatted" >&2
    exit 1
fi
go vet ./...
go build ./...
go test -race ./...

# The data fast path's concurrency surface (lock-free TLB hits against
# locked invalidation, the RLock'd read walk) and the cold path's
# (DESIGN.md §17: demand-zero pages gaining their backing under readers,
# the decoder, block builds sharing one scratch pool across CPUs, the
# loader, the syscall-site scan and the coreutil lookup), plus the
# interposer binder's hcall payloads, the netstack's lock-sharded tables
# and activity hub, and the kernel and the mechanisms that now reach guest
# memory through the task's unsynchronised D-TLB (DESIGN.md §19), get an
# explicit -race pass even though the full-suite run above covers these
# packages: a future narrowing of the suite must not silently drop this
# gate.
go test -race ./internal/cpu/... ./internal/mem/... ./internal/isa/... ./internal/interpose/... \
    ./internal/kernel/... ./internal/sud/... ./internal/seccomputil/... ./internal/ptracer/... \
    ./internal/loader/... ./internal/zpoline/... ./internal/guest/... ./internal/netstack/...

# The in-kernel parallel scheduler is gone (DESIGN.md §15), and so are
# the five fast-path toggles (one fast engine, one reference engine:
# DESIGN.md §7); their flags, tools and hooks must not creep back into
# the docs or tooling. (The bracketed letters keep this line from
# matching itself.)
if grep -rnE -e 'par[b]ench|par-[s]moke|RegisterHcall[C]oncurrent|Concurrent[S]afe|-[c]ores' \
    -e '-[d]ecodecache|-[s]uperblock|-[c]hain=|-[t]races|[t]lb-smoke|[c]hain-smoke' \
    -e 'Disabl[e](DecodeCache|TLB|Superblocks|Chaining|Traces)' \
    README.md DESIGN.md Makefile scripts .claude; then
    echo "removed parallel-scheduler or fast-path-toggle surface is still named above" >&2
    exit 1
fi

# Shared image frames and decoded blocks (DESIGN.md §17): address spaces
# aliasing one frame while another privatizes its copy, CPUs publishing
# and reusing one frame's blocks, and a -j 2 sweep of kernels over one
# memoized image with lazypoline and zpoline rewriting their own copies.
go test -race ./internal/mem ./internal/cpu ./internal/experiments \
    -run 'Frame|TestShared|TestLockstepShared' -count 1

# Cold-path allocation gate: a coreutil run in a fresh kernel must stay
# inside its byte/object budget — an eager page array or a per-byte
# decode error object would break it.
go test ./internal/experiments -run 'TestColdStartAllocs' -count 1

# Steady-state allocation gate (DESIGN.md §19): once warm, an interposed
# syscall allocates nothing under any mechanism.
go test ./internal/experiments -run 'TestInterposedSyscallAllocs' -count 1

# Benchmark smoke run: the interpreter benchmarks must still execute, and
# cpubench must still clear its three fast-vs-reference floors (the
# load/store sweep's pinned at 2.0x) and show every fast-engine tier at
# work (written to a scratch file; the checked-in BENCH_cpu.json snapshot
# is refreshed manually).
go test ./internal/cpu/ -run '^$' -bench 'BenchmarkCPUStep|BenchmarkDecodeCache' -benchtime 100ms
go run ./cmd/cpubench -steps 1000000 -iters 20000 -memsweeps 200 -repeat 2 -minmemloop 2.0 -out /tmp/ci_BENCH_cpu.json

# Engine equivalence (DESIGN.md §7): every guest cell under every
# mechanism must be byte-identical on the reference engine, with a
# telemetry sink, with chaos at rate 0 and with an all-off policy.
go test ./internal/experiments -run TestExecEquivalence -count 1

# The default Figure 5 smoke sweep the policy-off diff below compares
# against.
smoke="-requests 60 -conns 8 -sizes 1024,65536 -workers 1 -servers nginx,lighttpd"
go run ./cmd/macrobench $smoke -out /tmp/ci_fig5_default.json
strip_wall() { grep -v '"wall_seconds"' "$1"; }
strip_wall /tmp/ci_fig5_default.json > /tmp/ci_fig5_default.stripped

# Chaos determinism (DESIGN.md §8): a fixed fault plan must be
# mechanism-invariant on a single-task guest — identical strace log,
# console and exit across mechanisms — and demonstrably engaged (the
# injected -EINTR/-EAGAIN returns must appear in the log).
chaos="-builtin cat -stats=false -chaos-seed 7 -chaos-rate 0.3"
go run ./cmd/runsim -mech lazypoline $chaos > /tmp/ci_chaos_lazypoline.txt
go run ./cmd/runsim -mech sud $chaos > /tmp/ci_chaos_sud.txt
diff -u /tmp/ci_chaos_lazypoline.txt /tmp/ci_chaos_sud.txt
grep -q ' = -4 (EINTR)$' /tmp/ci_chaos_sud.txt   # an injected EINTR was retried
grep -q ' = -11 (EAGAIN)$' /tmp/ci_chaos_sud.txt # an injected EAGAIN was retried

# Telemetry inertness (DESIGN.md §9): a Figure 5 row instrumented with
# the metrics registry must produce a byte-identical BENCH snapshot to
# an uninstrumented run — telemetry only ever adds a separate file.
tsmoke="-requests 40 -conns 4 -sizes 1024 -workers 1 -servers nginx"
go run ./cmd/macrobench $tsmoke -out /tmp/ci_fig5_tel_off.json
go run ./cmd/macrobench $tsmoke -out /tmp/ci_fig5_tel_on.json -metrics-out /tmp/ci_fig5_metrics.json
strip_wall /tmp/ci_fig5_tel_off.json > /tmp/ci_fig5_tel_off.stripped
strip_wall /tmp/ci_fig5_tel_on.json > /tmp/ci_fig5_tel_on.stripped
diff -u /tmp/ci_fig5_tel_off.stripped /tmp/ci_fig5_tel_on.stripped
grep -q '"path": "trampoline"' /tmp/ci_fig5_metrics.json  # breakdown recorded

# Telemetry outputs + tracecat round trip: runsim must emit all three
# surfaces, and tracecat must pretty-print and convert the trace.
go run ./cmd/runsim -builtin microbench -mech lazypoline -trace=false -stats=false \
    -metrics-out /tmp/ci_tel_metrics.json -trace-out /tmp/ci_tel_trace.json \
    -profile-out /tmp/ci_tel_profile.folded
grep -q 'kernel.dispatch.trampoline.calls' /tmp/ci_tel_metrics.json
grep -q 'lazypoline_entry' /tmp/ci_tel_profile.folded
go run ./cmd/tracecat /tmp/ci_tel_trace.json | head -5
go run ./cmd/tracecat -format jsonl /tmp/ci_tel_trace.json > /tmp/ci_tel_trace.jsonl
go run ./cmd/tracecat -format chrome /tmp/ci_tel_trace.jsonl > /tmp/ci_tel_trace2.json
diff -u /tmp/ci_tel_trace.json /tmp/ci_tel_trace2.json

# Decoder fuzz smoke: the isa decoder must survive arbitrary bytes.
go test ./internal/isa/ -run '^$' -fuzz FuzzDecode -fuzztime 5s

# Memory-access fuzz smoke: the single-walk ReadAt/WriteAt must match
# the byte-at-a-time oracle on arbitrary spans and PKRU values.
go test ./internal/mem/ -run '^$' -fuzz FuzzAccess -fuzztime 5s

# Demand-zero fuzz smoke: random mapping/access programs against the
# eager flat model (DESIGN.md §17).
go test ./internal/mem/ -run '^$' -fuzz FuzzDemandZeroModel -fuzztime 5s

# Counted-loop fuzz smoke: the closed form, plain chained execution and
# plain Step must agree on any counter, budget sequence and preceding NOP
# run (DESIGN.md §18).
go test ./internal/cpu/ -run '^$' -fuzz FuzzCountedLoop -fuzztime 5s

# Block-build fuzz smoke: windowed and NOP-run-aliased blocks must equal a
# decode of the whole page remainder on arbitrary code pages (DESIGN.md §17).
go test ./internal/cpu/ -run '^$' -fuzz FuzzBlockBuild -fuzztime 5s

# Stack-run fuzz smoke: push/pop/reload runs of any length near page edges,
# under every page protection and budgets ending mid-run, must agree with
# Step at every block boundary under Lockstep (DESIGN.md §11).
go test ./internal/cpu/ -run '^$' -fuzz FuzzStackRun -fuzztime 5s

# Syscall-site scan fuzz smoke: the padding-skipping linear sweep must find
# the sites the per-offset sweep finds, on arbitrary bytes.
go test ./internal/zpoline/ -run '^$' -fuzz FuzzFindSyscallSites -fuzztime 5s

# Task-accessor fuzz smoke: random mapping changes, kernel-side spans and
# guest stores through the task's D-TLB against the locked AddressSpace
# path (DESIGN.md §19).
go test ./internal/kernel/ -run '^$' -fuzz FuzzTaskAccessors -fuzztime 5s

# Syscall-policy layer (DESIGN.md §12). A Figure 5 sweep with the policy
# flags explicitly off must be byte-identical to one that never mentions
# them — an all-off PolicyConfig normalizes to a policy-free kernel — and
# the invariance gate (mechanism-invariant violation records, benign
# enforcement; off-inertness is TestExecEquivalence's) must pass.
go run ./cmd/macrobench $smoke -policy-regions=false -policy-sfip=false -out /tmp/ci_fig5_policy_off.json
strip_wall /tmp/ci_fig5_policy_off.json > /tmp/ci_fig5_policy_off.stripped
diff -u /tmp/ci_fig5_default.stripped /tmp/ci_fig5_policy_off.stripped
go test ./internal/experiments -run 'TestPolicyInvariance(Attacks|Benign)' -count 1

# Attack-guest smoke: with the matching layer on, both attacks die with
# 128+SIGSYS and a violation record that is byte-identical across
# mechanisms; with the policy off they escape to their benign exits.
pol="-trace=false -stats=false"
go run ./cmd/runsim -builtin attack-jit -mech none $pol -policy regions > /tmp/ci_policy_jit_ref.txt
grep -q 'policy violation: policy: getpid issued from unprivileged address' /tmp/ci_policy_jit_ref.txt
grep -q 'exit code 159' /tmp/ci_policy_jit_ref.txt
go run ./cmd/runsim -builtin attack-seq -mech none $pol -policy sfip > /tmp/ci_policy_seq_ref.txt
grep -q 'policy violation: policy: transition write -> execve not in profile' /tmp/ci_policy_seq_ref.txt
grep -q 'exit code 159' /tmp/ci_policy_seq_ref.txt
for m in lazypoline zpoline sud seccomp-user ptrace; do
    go run ./cmd/runsim -builtin attack-jit -mech $m $pol -policy regions > /tmp/ci_policy_jit_$m.txt
    diff -u /tmp/ci_policy_jit_ref.txt /tmp/ci_policy_jit_$m.txt
    go run ./cmd/runsim -builtin attack-seq -mech $m $pol -policy sfip > /tmp/ci_policy_seq_$m.txt
    diff -u /tmp/ci_policy_seq_ref.txt /tmp/ci_policy_seq_$m.txt
done
go run ./cmd/runsim -builtin attack-jit -mech lazypoline $pol | grep -q 'exit code 42'
go run ./cmd/runsim -builtin attack-seq -mech lazypoline $pol | grep -q 'exit code 43'

# Policy overhead bench must still run end to end (small configuration;
# the checked-in BENCH_policy.json snapshot is refreshed manually).
go run ./cmd/policybench -iters 2000 -requests 40 -conns 4 -sizes 1024 \
    -mechs baseline,lazypoline -out /tmp/ci_BENCH_policy.json
grep -q '"policy": "both"' /tmp/ci_BENCH_policy.json

# Fleet robustness (DESIGN.md §13): a farm run is a pure function of
# its config — two same-seed fleetbench sweeps must produce
# byte-identical snapshots (wall_seconds aside) — and the kill drill at
# N-1-sustainable load must lose nothing while ejecting the dead
# backend. The checked-in BENCH_fleet.json is refreshed manually.
fsmoke="-requests 60 -drills none,kill -mechs baseline,lazypoline"
go run ./cmd/fleetbench $fsmoke -out /tmp/ci_fleet_a.json
go run ./cmd/fleetbench $fsmoke -out /tmp/ci_fleet_b.json
strip_wall /tmp/ci_fleet_a.json > /tmp/ci_fleet_a.stripped
strip_wall /tmp/ci_fleet_b.json > /tmp/ci_fleet_b.stripped
diff -u /tmp/ci_fleet_a.stripped /tmp/ci_fleet_b.stripped
if grep -E '"lost": [1-9]' /tmp/ci_fleet_a.json; then
    echo "fleet: kill drill lost responses" >&2; exit 1
fi
grep -q '"drill": "kill"' /tmp/ci_fleet_a.json
grep -q '"ejections": 1' /tmp/ci_fleet_a.json

# Request-scoped tracing (DESIGN.md §14). The trace plane must be inert:
# a fleetbench cell with tracing attached must produce a byte-identical
# BENCH snapshot to the untraced run, the same seed must produce a
# byte-identical trace file, and the kill-drill trace must show the
# balancer retrying an in-flight request on a surviving backend.
otr="-requests 60 -rate 200 -drills kill -mechs lazypoline"
go run ./cmd/fleetbench $otr -out /tmp/ci_otr_plain.json
go run ./cmd/fleetbench $otr -out /tmp/ci_otr_traced.json \
    -trace-out /tmp/ci_otr_a.jsonl -slo-out /tmp/ci_otr_slo.txt
strip_wall /tmp/ci_otr_plain.json > /tmp/ci_otr_plain.stripped
strip_wall /tmp/ci_otr_traced.json > /tmp/ci_otr_traced.stripped
diff -u /tmp/ci_otr_plain.stripped /tmp/ci_otr_traced.stripped
go run ./cmd/fleetbench $otr -out '' -trace-out /tmp/ci_otr_b.jsonl
diff -u /tmp/ci_otr_a.jsonl /tmp/ci_otr_b.jsonl
grep -q 'fleet-slo' /tmp/ci_otr_slo.txt
grep -q '"exemplar_count"' /tmp/ci_otr_traced.json

# Figure 5 must be equally blind to request tracing (-reqtrace only adds
# request span trees to the separate -trace-out file).
go run ./cmd/macrobench $tsmoke -reqtrace -out /tmp/ci_fig5_reqtrace.json
strip_wall /tmp/ci_fig5_reqtrace.json > /tmp/ci_fig5_reqtrace.stripped
diff -u /tmp/ci_fig5_tel_off.stripped /tmp/ci_fig5_reqtrace.stripped

# tracecat must render the request trees (retry visible) and round-trip
# the fleet trace through the Chrome envelope without loss.
go run ./cmd/tracecat -requests /tmp/ci_otr_a.jsonl | grep -q 'lb/retry'
go run ./cmd/tracecat -requests /tmp/ci_otr_a.jsonl | grep -q 'otrace stats:'
go run ./cmd/tracecat -format chrome -o /tmp/ci_otr_a.json /tmp/ci_otr_a.jsonl
go run ./cmd/tracecat -format jsonl /tmp/ci_otr_a.json > /tmp/ci_otr_rt.jsonl
diff -u /tmp/ci_otr_a.jsonl /tmp/ci_otr_rt.jsonl

# Host-time benchmark (bench/README.md): its unit tests, then a quick
# drive of four workloads, the small-file serving cells among them. Only
# the exit status is gated — every cell's
# simulated result must match bench/golden/ and no unit of work may fail;
# timings on a shared CI host are printed, never compared.
go test ./bench -count 1
make hostbench-quick
