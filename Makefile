# Development entry points. `make ci` is the gate every change must pass:
# vet + build + the full test suite under the race detector (the parallel
# experiment harness is exercised by tests, so -race guards the per-cell
# isolation contract).

.PHONY: ci test bench hostbench hostbench-quick snapshots smoke fuzz

ci:
	./scripts/ci.sh

test:
	go test ./...

# The CI-sized drive of the command surface (scripts/ci.sh runs it): one
# build of lazysim runs every checked-in snapshot (snapshotTable in
# cmd/lazysim/snapshots.go) at its smoke size into SMOKE_DIR, so every
# sweep runs end to end; then the telemetry outputs
# (DESIGN.md §9: run emits all three surfaces, trace pretty-prints the
# timeline and round-trips it through JSONL), request-scoped tracing
# (DESIGN.md §9: the kill-drill trace shows the balancer retrying an
# in-flight request on a surviving backend and round-trips through the
# Chrome envelope), one attack demo per policy layer, each killed with
# its violation banner, and the five examples/ programs README tells
# readers to run, each of which must exit 0. The checked-in snapshots are refreshed with
# `make snapshots`; the invariance gates are Go tests (`go test ./...`).
SMOKE_DIR ?= /tmp/lazysim-smoke
lz = $(SMOKE_DIR)/lazysim
smoke:
	mkdir -p $(SMOKE_DIR)
	go build -o $(lz) ./cmd/lazysim
	$(lz) snapshots -smoke -dir $(SMOKE_DIR)
	$(lz) run -builtin microbench -mech lazypoline -trace=false -stats=false \
		-metrics-out $(SMOKE_DIR)/tel_metrics.json -trace-out $(SMOKE_DIR)/tel_trace.json \
		-profile-out $(SMOKE_DIR)/tel_profile.folded
	grep -q 'kernel.dispatch.trampoline.calls' $(SMOKE_DIR)/tel_metrics.json
	grep -q 'lazypoline_entry' $(SMOKE_DIR)/tel_profile.folded
	$(lz) trace $(SMOKE_DIR)/tel_trace.json > $(SMOKE_DIR)/tel_trace.txt
	$(lz) trace -format jsonl $(SMOKE_DIR)/tel_trace.json > $(SMOKE_DIR)/tel_trace.jsonl
	$(lz) trace -format chrome $(SMOKE_DIR)/tel_trace.jsonl > $(SMOKE_DIR)/tel_trace2.json
	diff -u $(SMOKE_DIR)/tel_trace.json $(SMOKE_DIR)/tel_trace2.json
	$(lz) fleet -requests 60 -rate 200 -drills kill -mechs lazypoline -out '' \
		-trace-out $(SMOKE_DIR)/otr.jsonl -slo-out $(SMOKE_DIR)/otr_slo.json
	grep -q 'fleet-slo' $(SMOKE_DIR)/otr_slo.json
	$(lz) trace -requests $(SMOKE_DIR)/otr.jsonl > $(SMOKE_DIR)/otr_trees.txt
	grep -q 'lb/retry' $(SMOKE_DIR)/otr_trees.txt
	grep -q 'otrace stats:' $(SMOKE_DIR)/otr_trees.txt
	$(lz) trace -format chrome -o $(SMOKE_DIR)/otr.json $(SMOKE_DIR)/otr.jsonl
	$(lz) trace -format jsonl $(SMOKE_DIR)/otr.json > $(SMOKE_DIR)/otr_rt.jsonl
	diff -u $(SMOKE_DIR)/otr.jsonl $(SMOKE_DIR)/otr_rt.jsonl
	$(lz) run -builtin attack-jit -mech lazypoline -policy regions -trace=false -stats=false \
		> $(SMOKE_DIR)/attack_jit.txt
	grep -q 'unprivileged address 0x5000000a' $(SMOKE_DIR)/attack_jit.txt
	grep -q 'exit code 159' $(SMOKE_DIR)/attack_jit.txt
	$(lz) run -builtin attack-seq -mech sud -policy sfip -trace=false -stats=false \
		> $(SMOKE_DIR)/attack_seq.txt
	grep -q 'write -> execve' $(SMOKE_DIR)/attack_seq.txt
	grep -q 'exit code 159' $(SMOKE_DIR)/attack_seq.txt
	for ex in quickstart jit sandbox webserver mvee; do \
		go build -o $(SMOKE_DIR)/example_$$ex ./examples/$$ex && \
		$(SMOKE_DIR)/example_$$ex > $(SMOKE_DIR)/example_$$ex.txt || exit 1; \
	done

# Every fuzz target for FUZZTIME each (scripts/ci.sh runs 5s of each),
# one package:Target pair per entry of FUZZ_TARGETS:
#   FuzzDecode: the isa decoder must survive arbitrary bytes, and the
#     emitter must re-encode whatever it decodes, and the assembler must
#     reassemble its disassembly, to the same instruction.
#   FuzzAccess: the single-walk ReadAt/WriteAt must match the
#     byte-at-a-time oracle on arbitrary spans and PKRU values.
#   FuzzDemandZeroModel: random mapping/access programs against the eager
#     flat model (DESIGN.md §4).
#   FuzzCountedLoop: the closed form, per-instruction execution and plain
#     Step must agree on any counter, budget sequence and preceding NOP
#     run (DESIGN.md §3).
#   FuzzBlockBuild: windowed and NOP-run-aliased blocks must equal a
#     decode of the whole page remainder on arbitrary code pages
#     (DESIGN.md §3).
#   FuzzStackRun: push/pop/reload runs of any length near page edges,
#     under every page protection and budgets ending mid-run, must agree
#     with Step at every block boundary under Lockstep (DESIGN.md §3).
#   FuzzFindSyscallSites: the padding-skipping linear sweep must find the
#     sites the per-offset sweep finds, on arbitrary bytes.
#   FuzzTaskAccessors: random mapping changes, kernel-side spans and guest
#     stores through the task's D-TLB against the locked AddressSpace path
#     (DESIGN.md §5).
#   FuzzDecodeTrace: `lazysim trace`'s reader must survive arbitrary bytes,
#     and encode -> decode -> encode must repeat the bytes in both formats.
#   FuzzUnmarshal: the SELF image reader (`lazysim run` loads images from
#     disk) must survive arbitrary bytes, allocate in proportion to its
#     input whatever the header's counts claim, and Marshal -> Unmarshal ->
#     Marshal must repeat the bytes.
#   FuzzEpollVersions: socket, fd-table and epoll programs polled with
#     cached misses must report what polling everything every time reports:
#     the same events, wake rounds and bytes (DESIGN.md §5).
#   FuzzAssemble: the assembler (`lazysim asm` input) must not panic or
#     hang on any source text, must allocate at most eight times
#     MaxProgram plus a multiple of the input, and must give the same
#     bytes twice; its seeds are single statements, so it executes
#     inputs instead of minimizing kilobyte-long programs.
FUZZTIME ?= 30s
FUZZ_TARGETS = isa:FuzzDecode mem:FuzzAccess mem:FuzzDemandZeroModel \
	cpu:FuzzCountedLoop cpu:FuzzBlockBuild cpu:FuzzStackRun \
	zpoline:FuzzFindSyscallSites kernel:FuzzTaskAccessors \
	telemetry:FuzzDecodeTrace loader:FuzzUnmarshal kernel:FuzzEpollVersions \
	asm:FuzzAssemble
fuzz:
	for t in $(FUZZ_TARGETS); do \
		go test ./internal/$${t%%:*}/ -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

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
