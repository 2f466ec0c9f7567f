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
# interposer binder's hcall payloads, the netstack's locked tables, and
# the kernel and the mechanisms that now reach guest
# memory through the task's unsynchronised D-TLB (DESIGN.md §19), get an
# explicit -race pass even though the full-suite run above covers these
# packages: a future narrowing of the suite must not silently drop this
# gate.
go test -race ./internal/cpu/... ./internal/mem/... ./internal/isa/... ./internal/interpose/... \
    ./internal/kernel/... ./internal/sud/... ./internal/seccomputil/... ./internal/ptracer/... \
    ./internal/loader/... ./internal/zpoline/... ./internal/guest/... ./internal/netstack/...

# The in-kernel parallel scheduler is gone (DESIGN.md §15), and so are
# the five fast-path toggles (one fast engine, one reference engine:
# DESIGN.md §7), the hot-trace tier (chained blocks and fused handlers
# are the whole fast engine: DESIGN.md §11), the ten per-artifact
# binaries (one cmd/lazysim), the six per-area smoke targets (one
# `make smoke`) and the fleet, tracer and kernel options no workload set
# (fixed constants now: DESIGN.md §13, §14); their flags, tools, hooks
# and names must not creep back into the docs or tooling. (The bracketed
# letters keep this line from matching itself.)
if grep -rnE -e 'par[b]ench|par-[s]moke|RegisterHcall[C]oncurrent|Concurrent[S]afe|-[c]ores' \
    -e '-[d]ecodecache|-[s]uperblock|-[c]hain=|-[t]races|[t]lb-smoke|[c]hain-smoke' \
    -e 'Disabl[e](DecodeCache|TLB|Superblocks|Chaining|Traces)' \
    -e '\b([m]acrobench|[p]intool|[p]olicybench|[f]leetbench|[c]pubench|[r]unsim|[s]asm|[t]racecat)\b' \
    -e 'cmd/([m]icrobench|[e]xhaustive)' \
    -e '[t]racePromoteThreshold|[r]unTrace|[b]uildTrace|[h]ot trace|cpu\.trace\.([p]romotions|[i]nvalidations|[r]uns)' \
    -e '\b([c]haos|[p]rofile|[e]xec|[p]olicy|[f]leet|[o]bs)-smoke\b' \
    -e '[M]axClientConns|[R]etryBudget|[B]ackoffBase|[U]nhealthyAfter|[H]ealthyAfter|[S]LOObjective' \
    -e '[S]tartFrac|[M]axSpansPerTree|[F]lightSize|[S]pawnOpts|[R]andSeed' \
    README.md DESIGN.md Makefile scripts .claude; then
    echo "removed parallel-scheduler, fast-path-toggle, trace-tier, per-artifact-binary, smoke-target or fixed-option surface is still named above" >&2
    exit 1
fi

# The netstack's subscription API and the closure-built blocked waits
# are gone: readiness is version-stamped and a parked task's wait is a
# value (DESIGN.md §15). So are the second interpreter timer (one Go test
# holds the engine floors: EXPERIMENTS.md, "Engine bench"), the parked
# all-blocked wait with its activity hub (a cell runs on one goroutine),
# the striped listener table and the second source interface. None may
# come back, in the code or the docs.
if grep -rnE -e '[S]ubscribe\(|[n]otifier|[s]ysBlock\(|blocked\.([p]oll|[r]etry)' \
    -e '[c]puCmd|BENCH_[c]pu|lazysim [c]pu|[A]ddExternalWaiter|[A]ctivityGen|[A]waitActivity|[B]umpActivity' \
    -e '[a]ctivityHub|[s]tackShards|[S]ealedSource' \
    README.md DESIGN.md Makefile scripts .claude internal cmd; then
    echo "removed readiness-subscription, blocked-closure, second-timer, parked-wait or sharded-stack surface is still named above" >&2
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

# Engine speedup floors (EXPERIMENTS.md, "Engine bench"): host-time
# ratios, so the -race run above skips them.
go test ./internal/experiments -run 'TestEngineSpeedupFloors' -count 1

# Steady-state allocation gate (DESIGN.md §19): once warm, an interposed
# syscall allocates nothing under any mechanism.
go test ./internal/experiments -run 'TestInterposedSyscallAllocs' -count 1

# Parking gate (DESIGN.md §15): parking a blocking syscall, polling its
# wait and waking it allocate nothing, whatever it waits on.
go test ./internal/kernel -run 'TestBlockedWakeAllocs' -count 1

# Serving data-path allocation gates (DESIGN.md §16): a warm keep-alive
# request allocates a few small objects whatever the file size, and a
# cell run a second time in one process reuses its receive buffers.
go test ./internal/webbench -run 'TestSteadyStateRequestAllocs|TestWarmCellAllocs' -count 1

# Benchmark smoke run: the interpreter benchmarks must still execute.
go test ./internal/cpu/ -run '^$' -bench 'BenchmarkCPUStep|BenchmarkDecodeCache' -benchtime 100ms

# Fuzz smoke: a few seconds of every fuzz target (Makefile lists them).
make fuzz FUZZTIME=5s

# The command surface at CI size (Makefile `smoke`): one build of
# lazysim runs every snapshot at its smoke size, the run/trace telemetry
# round trip, the fleet request-tree round trip, the two policy attack
# demos and the five examples/ programs. Engine, chaos, policy, telemetry, request-tracing and parallel
# invariance are Go tests in the -race run above (TestExecEquivalence,
# TestChaosInvariance*, TestPolicyInvariance*,
# TestFigure5ParallelDeterminism, TestFleetBenchDeterminism).
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
make smoke SMOKE_DIR="$tmp"

# Host-time benchmark (bench/README.md): its unit tests, then a quick
# drive of four workloads, the small-file serving cells among them. Only
# the exit status is gated — every cell's
# simulated result must match bench/golden/ and no unit of work may fail;
# timings on a shared CI host are printed, never compared.
go test ./bench -count 1
make hostbench-quick
