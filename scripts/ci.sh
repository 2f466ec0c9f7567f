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
# Doc gate: what the docs name must exist. In README.md, DESIGN.md,
# EXPERIMENTS.md and the verify skill, (a) a backticked repository path
# (internal/, cmd/, examples/, scripts/, *.go, BENCH_*.json; a path may
# be relative to internal/) must exist; (b) a backticked `pkg.Name` whose
# internal/pkg exists must name an identifier in that package; (c) a
# Test/Fuzz/Benchmark name must have a func, or, when followed by `*` or
# inside a -run/-bench/-fuzz regex, be the prefix of one. (d) Every
# section number cited as §N in the docs, ROADMAP.md, Go, shell or the
# Makefile must be a `## N.` heading of DESIGN.md. CHANGES.md is history
# and is not checked.
set +x
funcs=$(grep -rhoE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' --include='*.go' . | cut -c6- | sort -u)
stale=$(
for doc in README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md; do
    # Inline code spans, one a line; fenced blocks skipped, spans may wrap.
    spans=$(awk '/^[ \t]*```/ { f = !f; next } !f { printf "%s ", $0 }' "$doc" | tr '`' '\n' | awk 'NR % 2 == 0')
    printf '%s\n' "$spans" |
        grep -E '^((internal|cmd|examples|scripts)/[A-Za-z0-9_./-]*|[A-Za-z0-9_./-]+\.go|BENCH_[A-Za-z0-9_]+\.json)$' |
        sort -u | while IFS= read -r p; do
            p=${p%/...}; p=${p%/}
            [ -e "$p" ] || [ -e "internal/$p" ] ||
                [ -n "$(find . -path ./.git -prune -o -name "$p" -print | head -n 1)" ] ||
                echo "$doc: no such path: $p"
        done
    printf '%s\n' "$spans" | sed -nE 's/^([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*).*/\1 \2/p' |
        sort -u | while read -r pkg name; do
            [ -d "internal/$pkg" ] || continue
            grep -rhw --include='*.go' -e "$name" "internal/$pkg" | grep -qv '^[[:space:]]*//' ||
                echo "$doc: $pkg.$name names nothing in internal/$pkg"
        done
    text=$(tr '\n' ' ' < "$doc")
    regex="-(run|bench|fuzz)[ =]+('[^']*'|\"[^\"]*\"|[^ '\"\`]+)"
    {
        printf '%s\n' "$text" | grep -oE -- "$regex" | grep -oE '(Test|Fuzz|Benchmark)[A-Za-z0-9_]+' | sed 's/$/*/'
        printf '%s\n' "$text" | sed -E "s/$regex//g" | grep -oE '(Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*\*?'
    } | sort -u | while read -r n; do
        case $n in
        *\*) printf '%s\n' "$funcs" | grep -q "^${n%\*}" || echo "$doc: no func starts with ${n%\*}" ;;
        *) printf '%s\n' "$funcs" | grep -qx "$n" || echo "$doc: no func $n" ;;
        esac
    done
done
{
    grep -rhoE '§[0-9]+' --include='*.go' --include='*.sh' --include=Makefile . || true
    grep -hoE '§[0-9]+' README.md DESIGN.md EXPERIMENTS.md ROADMAP.md .claude/skills/verify/SKILL.md || true
} | grep -oE '[0-9]+' | sort -un | while read -r n; do
    grep -q "^## $n\. " DESIGN.md || echo "§$n is cited but DESIGN.md has no section $n"
done
)
set -x
if [ -n "$stale" ]; then
    echo "$stale" >&2
    echo "the docs name paths, identifiers, tests or DESIGN.md sections that do not exist" >&2
    exit 1
fi
go vet ./...
go build ./...
go test -race ./...

# Removed surface stays removed, in the code or the docs. Each record of
# the table below is three lines: grep -E patterns, one per tab-separated
# field; the paths grep searches (options first, when a record needs
# one); and what was removed, printed when a pattern matches. (The
# bracketed letters keep a pattern from matching this file.)
#   1. The in-kernel parallel scheduler (DESIGN.md §5), the five
#      fast-path toggles (one fast engine, one reference engine: DESIGN.md
#      §3), the hot-trace tier (the decode cache and fused handlers are
#      the whole fast engine: DESIGN.md §3), the ten per-artifact binaries
#      (one cmd/lazysim), the six per-area smoke targets (one `make
#      smoke`) and the fleet, tracer and kernel options no workload set
#      (fixed constants now: DESIGN.md §8, §9): their flags, tools, hooks
#      and names.
#   2. The netstack's subscription API and the closure-built blocked
#      waits (readiness is version-stamped and a parked task's wait is a
#      value: DESIGN.md §5); the second interpreter timer (one Go test
#      holds the engine floors: EXPERIMENTS.md, "Engine bench"); the
#      parked all-blocked wait with its activity hub (a cell runs on one
#      goroutine); the striped listener table; the second source
#      interface; the blocks' predecessor lists (blocks hold no links to
#      each other: DESIGN.md §3); the decode
#      cache's sled views and FIFO overflow eviction (frame-backed blocks
#      are decoded once per process and an overflow flushes the map:
#      DESIGN.md §3); the address space's page map with its sizing
#      constant and sort (a sorted list of mappings: DESIGN.md §4); the
#      per-cell locks and the lock order they imposed (DESIGN.md §8 lists
#      the shared objects that keep theirs); and the fast engine's second
#      dispatcher with its per-Step block lookup and its handler dispatch
#      on arrival through a successor slot (one loop finds and runs each
#      block: DESIGN.md §3).
#   3, 4. The syscall ABI is one table (DESIGN.md §5): each row's name,
#      handler and no-return flag give dispatch, the names, the assembler
#      prelude and the call pairing of the mechanisms (DESIGN.md §6). The
#      name map, the mechanisms' own no-return list, the kernel tests'
#      header and every hand-written `.equ SYS_*` line in Go (the
#      generator formats `SYS_%s`).
#   5. One call lifecycle (DESIGN.md §6): interpose.CallStack opens,
#      keeps and closes every interposed call, so the ptracer's own call
#      list is gone. So is the Figure 5 request-tracer switch with its
#      flag and seed, which only proved the tracer inert (a webbench test
#      does that per mechanism).
#   6. Block chaining (DESIGN.md §3): the successor slots, their
#      counters and their stats type. A transfer between blocks is found
#      in the block table or the map, like any other entry.
#      EXPERIMENTS.md and CHANGES.md keep the history.
set -f
tab=$(printf '\t')
while IFS= read -r patterns && IFS= read -r paths && IFS= read -r removed; do
    IFS=$tab
    set -- $patterns
    IFS=' '
    for p; do set -- "$@" -e "$p"; shift; done
    # shellcheck disable=SC2086 # paths split on spaces
    if grep -rnE "$@" $paths; then
        echo "$removed" >&2
        exit 1
    fi
done <<'REMOVED'
par[b]ench|par-[s]moke|RegisterHcall[C]oncurrent|Concurrent[S]afe|-[c]ores	-[d]ecodecache|-[s]uperblock|-[c]hain=|-[t]races|[t]lb-smoke|[c]hain-smoke	Disabl[e](DecodeCache|TLB|Superblocks|Chaining|Traces)	\b([m]acrobench|[p]intool|[p]olicybench|[f]leetbench|[c]pubench|[r]unsim|[s]asm|[t]racecat)\b	cmd/([m]icrobench|[e]xhaustive)	[t]racePromoteThreshold|[r]unTrace|[b]uildTrace|[h]ot trace|cpu\.trace\.([p]romotions|[i]nvalidations|[r]uns)	\b([c]haos|[p]rofile|[e]xec|[p]olicy|[f]leet|[o]bs)-smoke\b	[M]axClientConns|[R]etryBudget|[B]ackoffBase|[U]nhealthyAfter|[H]ealthyAfter|[S]LOObjective	[S]tartFrac|[M]axSpansPerTree|[F]lightSize|[S]pawnOpts|[R]andSeed
README.md DESIGN.md Makefile scripts .claude
removed parallel-scheduler, fast-path-toggle, trace-tier, per-artifact-binary, smoke-target or fixed-option surface is still named above
[S]ubscribe\(|[n]otifier|[s]ysBlock\(|blocked\.([p]oll|[r]etry)	[c]puCmd|BENCH_[c]pu|lazysim [c]pu|[A]ddExternalWaiter|[A]ctivityGen|[A]waitActivity|[B]umpActivity	[a]ctivityHub|[s]tackShards|[S]ealedSource|[p]redLink|[r]emovePred	[f]aultsMu|[e]xMu|[L]ock order	[s]ledSuffix|[s]ledBase|[e]victForSpace|[c]ompactFIFO|[e]victBatch	[s]pawnPages|[s]ortU64	[c]achedInst|[r]unChained|[r]unSpecialized
README.md DESIGN.md Makefile scripts .claude internal cmd
removed readiness-subscription, blocked-closure, second-timer, parked-wait, sharded-stack, predecessor-list, sled-view, FIFO-eviction, page-map, per-cell-lock or second-dispatcher surface is still named above
[s]ysNames|[n]oReturnSyscall|[g]uestHeader
README.md DESIGN.md Makefile scripts .claude internal cmd
removed syscall name map, no-return list, test header or hand-written SYS_ constant is still named above
\.equ SYS_[a-z]
--include=*.go .
removed syscall name map, no-return list, test header or hand-written SYS_ constant is still named above
[t]askCalls|[R]equestTraces|-[r]eqtrace|[T]raceSeed
README.md DESIGN.md EXPERIMENTS.md Makefile scripts .claude internal cmd
removed ptracer call list or Figure 5 request-tracer switch is still named above
[c]hainSucc	[C]hainStats	[c]hainSlot	cpu\.[c]hain\.
README.md DESIGN.md scripts internal cmd
removed block-chaining surface is still named above
REMOVED
unset IFS
set +f

# The gate for what stays shared across cells (DESIGN.md §8): address
# spaces aliasing one frame while another privatizes its copy, pages
# sealed into frames and the table they share, CPUs publishing and
# reusing one frame's blocks, and a -j 2 sweep of kernels over one
# memoized image with lazypoline and zpoline rewriting their own copies,
# run uncached (-count 1) so a cached pass cannot stand in for it.
go test -race ./internal/mem ./internal/cpu ./internal/experiments \
    -run 'Frame|TestShared|TestLockstepShared' -count 1

# Single-test gates that must run without -race, one package at a time
# (-p 1), so the speedup floors never share the host with another test
# binary:
#   TestColdStartAllocs: a coreutil run in a fresh kernel stays inside its
#     byte/object budget; an eager page array or a per-byte decode error
#     object would break it.
#   TestEngineSpeedupFloors: host-time ratios (EXPERIMENTS.md, "Engine
#     bench"), which the -race run above skips.
#   TestInterposedSyscallAllocs: once warm, an interposed syscall allocates
#     nothing under any mechanism (DESIGN.md §6).
#   TestBlockedWakeAllocs: parking a blocking syscall, polling its wait and
#     waking it allocate nothing, whatever it waits on (DESIGN.md §5).
#   TestPathSyscallAllocs: once warm, stat, access, chmod, utimensat and
#     mkdir of an existing path allocate nothing, a rename its new name
#     and open+close one object (DESIGN.md §5).
#   TestGetdentsAllocs: a directory is listed and sorted once, not once
#     per getdents64 call (DESIGN.md §7).
#   TestSealedFrameRewriteAllocs: rewriting a sealed code page reuses the
#     array its seal dropped and finds its frame by content (DESIGN.md §4).
#   TestFreshCPUBlockHeaderAllocs: a fresh CPU takes the headers of the
#     blocks it enters from chunks, not one allocation each (DESIGN.md §3).
#   TestUnmapReleasesSlabs: mapping 4096 pages and unmapping all but one,
#     64 times, holds under 1 MiB of heap, not 64 header slabs
#     (DESIGN.md §4).
#   TestSteadyStateRequestAllocs, TestWarmCellAllocs: a warm keep-alive
#     request allocates one small object whatever the file size, and a
#     cell run a second time in one process reuses its receive buffers
#     (DESIGN.md §7).
#   TestLentChunkAllocs: a warm 8 KiB read of a sealed file and its write
#     to a socket allocate nothing: the pages are aliased and lent, not
#     copied (DESIGN.md §7).
go test -p 1 -count 1 -run '^(TestColdStartAllocs|TestEngineSpeedupFloors|TestInterposedSyscallAllocs|TestBlockedWakeAllocs|TestPathSyscallAllocs|TestGetdentsAllocs|TestSealedFrameRewriteAllocs|TestFreshCPUBlockHeaderAllocs|TestUnmapReleasesSlabs|TestSteadyStateRequestAllocs|TestWarmCellAllocs|TestLentChunkAllocs)$' \
    ./internal/cpu ./internal/experiments ./internal/kernel ./internal/mem ./internal/webbench

# The intern table is process-wide and the slab test reads the heap, so
# the frame-table and slab tests run fifty times: one that depends on the
# map seed, or on what another test interned, fails here rather than once
# in a few dozen runs of the suite.
go test -count 50 -run 'Frame|Slab' ./internal/mem

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
