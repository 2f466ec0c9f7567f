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
# DESIGN.md §7) and the ten per-artifact binaries (one cmd/lazysim);
# their flags, tools and hooks must not creep back into the docs or
# tooling. (The bracketed letters keep this line from matching itself.)
if grep -rnE -e 'par[b]ench|par-[s]moke|RegisterHcall[C]oncurrent|Concurrent[S]afe|-[c]ores' \
    -e '-[d]ecodecache|-[s]uperblock|-[c]hain=|-[t]races|[t]lb-smoke|[c]hain-smoke' \
    -e 'Disabl[e](DecodeCache|TLB|Superblocks|Chaining|Traces)' \
    -e '\b([m]acrobench|[p]intool|[p]olicybench|[f]leetbench|[c]pubench|[r]unsim|[s]asm|[t]racecat)\b' \
    -e 'cmd/([m]icrobench|[e]xhaustive)' \
    README.md DESIGN.md Makefile scripts .claude; then
    echo "removed parallel-scheduler, fast-path-toggle or per-artifact-binary surface is still named above" >&2
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

# Benchmark smoke run: the interpreter benchmarks must still execute.
go test ./internal/cpu/ -run '^$' -bench 'BenchmarkCPUStep|BenchmarkDecodeCache' -benchtime 100ms

# Fuzz smoke: a few seconds of every fuzz target (Makefile lists them).
make fuzz FUZZTIME=5s

# One build of lazysim runs every checked-in snapshot (snapshotTable in
# cmd/lazysim/snapshots.go) at its smoke size into a scratch directory:
# every sweep must run end to end, and cpu must clear its three
# fast-vs-reference floors and show every fast-engine tier at work. The
# checked-in snapshots are refreshed with `make snapshots`. Engine, chaos,
# policy, telemetry, request-tracing and parallel invariance are Go tests
# in the -race run above (TestExecEquivalence, TestChaosInvariance*,
# TestPolicyInvariance*, TestFigure5ParallelDeterminism,
# TestFleetBenchDeterminism).
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/lazysim" ./cmd/lazysim
lz="$tmp/lazysim"
"$lz" snapshots -smoke -dir "$tmp"

# Telemetry outputs (DESIGN.md §9): run must emit all three surfaces, and
# trace must pretty-print the timeline and round-trip it through JSONL.
"$lz" run -builtin microbench -mech lazypoline -trace=false -stats=false \
    -metrics-out "$tmp/tel_metrics.json" -trace-out "$tmp/tel_trace.json" \
    -profile-out "$tmp/tel_profile.folded"
grep -q 'kernel.dispatch.trampoline.calls' "$tmp/tel_metrics.json"
grep -q 'lazypoline_entry' "$tmp/tel_profile.folded"
"$lz" trace "$tmp/tel_trace.json" > "$tmp/tel_trace.txt"
"$lz" trace -format jsonl "$tmp/tel_trace.json" > "$tmp/tel_trace.jsonl"
"$lz" trace -format chrome "$tmp/tel_trace.jsonl" > "$tmp/tel_trace2.json"
diff -u "$tmp/tel_trace.json" "$tmp/tel_trace2.json"

# Request-scoped tracing (DESIGN.md §14): the kill-drill trace must show
# the balancer retrying an in-flight request on a surviving backend, and
# round-trip through the Chrome envelope without loss.
"$lz" fleet -requests 60 -rate 200 -drills kill -mechs lazypoline -out '' \
    -trace-out "$tmp/otr.jsonl" -slo-out "$tmp/otr_slo.json"
grep -q 'fleet-slo' "$tmp/otr_slo.json"
"$lz" trace -requests "$tmp/otr.jsonl" > "$tmp/otr_trees.txt"
grep -q 'lb/retry' "$tmp/otr_trees.txt"
grep -q 'otrace stats:' "$tmp/otr_trees.txt"
"$lz" trace -format chrome -o "$tmp/otr.json" "$tmp/otr.jsonl"
"$lz" trace -format jsonl "$tmp/otr.json" > "$tmp/otr_rt.jsonl"
diff -u "$tmp/otr.jsonl" "$tmp/otr_rt.jsonl"

# Host-time benchmark (bench/README.md): its unit tests, then a quick
# drive of four workloads, the small-file serving cells among them. Only
# the exit status is gated — every cell's
# simulated result must match bench/golden/ and no unit of work may fail;
# timings on a shared CI host are printed, never compared.
go test ./bench -count 1
make hostbench-quick
