GO ?= go

.PHONY: check nomaps onewait onemachine deadexports vet build tilebench-build tilebench-smoke test race racepar race-fleet race-sim cover-fleet bench bench-check fuzz fuzz-smoke replay-smoke trace-smoke fleet-smoke fleet-fault-smoke placement-smoke tilevmd-smoke linkcheck cguests

# The full gate: what CI (and a pre-commit) should run.
check: vet nomaps onewait onemachine deadexports build tilebench-build test racepar

# The translator back end keeps its dataflow facts and allocation state
# in dense tables indexed by register number (DESIGN.md §7); a map
# creeping back into opt or codegen is a 4x translate slowdown. The code
# path keeps its per-event state the same way (DESIGN.md §7 "Code-path
# storage"): the cache levels, the manager and the exec tile index
# slices by block id, tile or page, never a map keyed by guest PC, which
# was a tenth of a fleet's host time; the tables are sized by the blocks
# a run touches, and a slot keeps them across its guests.
NOMAPS_FILES = internal/opt/*.go internal/codegen/*.go internal/codecache/*.go \
	$(addprefix internal/core/,exec.go manager.go tiles.go engine.go fleet.go rollback.go)
nomaps:
	@! grep -n 'map\[' $$(ls $(NOMAPS_FILES) | grep -v _test.go)

# The execution tile has one blocking wait, await (DESIGN.md §6): every
# request/reply leg goes through it, so a per-cause cycle ledger has one
# place to tag. Nothing is re-sent on a timer, so it has no deadline.
# Any other function in internal/core that calls Recv, or any that
# calls RecvDeadline, fails this.
onewait:
	$(GO) test -count=1 -run TestOneWaitSite ./internal/core

# Run is a fleet of one (DESIGN.md §9): internal/core builds a machine
# in one place and an engine in one place, so a second construction
# path — and with it a second recovery — cannot creep back. Any other
# raw.NewMachine( or &engine{ in its non-test files fails this.
onemachine:
	$(GO) test -count=1 -run TestOneMachineSite ./internal/core

# An exported function or method that nothing names, not even a test,
# is dead code (TestDeadExports in deadexports_test.go; matched by
# name, standard-interface methods exempt).
deadexports:
	$(GO) test -count=1 -run TestDeadExports .

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The benchmark (benchmark/, a module of its own, so not part of
# ./...) compiles against a few names of this module that therefore may
# not change shape: rawexec.Program{Sync,Exec}, translate.Result.Code,
# the sim and core entry points. Build and vet it the way the benchmark
# driver does — toolchain pinned to go.mod's line, no network — so a
# break fails here and not in the driver. Own build cache, nothing
# written under benchmark/.
tilebench-build:
	cd benchmark && GOCACHE=$${TMPDIR:-/tmp}/tilevm-tilebench-gocache GOTOOLCHAIN=local GOPROXY=off \
	  sh -c '$(GO) build -o /dev/null ./... && $(GO) vet ./...'

# tilebench-build only compiles those names; this runs them. The smoke-
# sized suite, traced, drives the benchmark's flat loop, which syncs
# translate.Result.Code into a rawexec.Program, runs it, and checks the
# host instructions it retired against the machine's own count; any
# failed operation exits non-zero. About 15 s once the build is cached.
# Writes only under benchmark/out (ignored).
tilebench-smoke:
	bash benchmark/run.sh --smoke --trace 1 --seconds 1

test:
	$(GO) test ./...

# The simulator hands control between tile-kernel goroutines through
# channels, so the race detector checks the one-runnable-process
# invariant for free. Slower; -short skips the long figure sweeps.
race:
	$(GO) test -race -short ./...

# The parallel-harness determinism gate on its own: the quick figure
# suite rendered serially and with an 8-worker pool must be
# byte-identical, and -race must see no shared mutable state between
# concurrent core.Run/pentium.Run jobs: a translator works in a scratch
# of its own (DESIGN.md §7 "Translator scratch"), one per engine, and
# the detector is what says no scratch is reachable from two jobs. With
# it, the event kernel's handler differential (servers as goroutines vs
# as handler processes) under -race: a handler runs on whichever
# goroutine popped it, so the detector is what says no two of them were
# ever inside the kernel at once. What concurrent runs do share is the
# host's translation memo (DESIGN.md §7 "Translation memo") and through
# it every block it hands out, which must therefore never be written
# after publication: TestParallelDeterminism runs against the suite's
# memo under RunParallel's eight workers, and TestMemoConcurrent fills
# one from four goroutines. Also part of `check`.
racepar:
	$(GO) test -race -short -run TestParallelDeterminism ./internal/bench
	$(GO) test -race -cpu 1,2 -run TestHandler ./internal/sim
	$(GO) test -race -cpu 2 -run TestMemoConcurrent ./internal/translate

# Fleet scheduler under the race detector: the N-guest placement,
# admission, and vmSwitch handoff tests, plus the schedule golden and
# the invariance battery, on core and bench. Then the kernel over
# independent shards — the loop every fleet without a fault plan runs
# on — at one and two Ps: its differential against the collapsed run
# (internal/sim), the fleets compared slot-at-a-time and interleaved,
# and the deadline fleets, whose exits expire queued guests under
# fences that cross shards (internal/core). A hand-off crosses shards,
# and a Fence grant resumes a goroutine that parked under another
# shard's turn.
race-fleet:
	$(GO) test -race -timeout 1200s -run 'TestFleet|TestCarve|TestPlacement|TestMultiVM|TestRunFleet|TestPlan|TestSplitRoles|TestNoFit' ./internal/core
	$(GO) test -race -run 'TestFleetSweepQuick|TestFleetFaultSweepQuick' ./internal/bench
	$(GO) test -race -cpu 1,2 -run TestSlotAtATime ./internal/sim
	$(GO) test -race -cpu 1,2 -timeout 1200s -run 'TestFleetSlotAtATime|TestFleetDeadline' ./internal/core

# All of internal/sim under the race detector. The kernel runs one
# process at a time and has no lock: what keeps two goroutines out of it
# is the hand-off itself (an unbuffered send on the next process's
# resume channel, then a wait on one's own), so the detector is the
# check — two goroutines inside the kernel at once is a reported race.
# At -cpu 1,2,4 because the window between "resume the next process"
# and "wait on my own resume" only exists with two or more Ps. Generous
# timeout — race mode is 10-20x slower and CI hosts are oversubscribed.
race-sim:
	$(GO) test -race -timeout 900s -cpu 1,2,4 ./internal/sim

# Coverage summary for the fleet/placement layer (the code this PR's
# test battery is aimed at).
cover-fleet:
	$(GO) test -run 'TestFleet|TestCarve|TestPlacement|TestMultiVM|TestRunFleet|TestPlan|TestSplitRoles|TestNoFit|FuzzCarveFabric|FuzzPlanFabric|FuzzQuarantineRecarve' \
	  -coverprofile=/tmp/tilevm-fleet-cover.out ./internal/core
	$(GO) tool cover -func=/tmp/tilevm-fleet-cover.out | \
	  grep -E 'fleet\.go|fleetpolicy\.go|placement\.go|planner\.go|total:'
	rm -f /tmp/tilevm-fleet-cover.out

# Perf trajectory: the microbenchmarks in bench_test.go (including
# BenchmarkTranslateBlock and BenchmarkL1Fill over the 176.gcc block
# corpus) plus the end-to-end figure-suite timing, and a
# machine-readable snapshot of the same numbers in BENCH_sim.json via
# cmd/simbench.
bench:
	$(GO) test -run - -bench . -benchmem .
	$(GO) test -run - -bench 'BenchmarkEventDispatch|BenchmarkAdvanceRecvRoundTrip|BenchmarkProcSwitch|BenchmarkTickRecv' -benchmem ./internal/sim
	$(GO) test -run - -bench BenchmarkInnerLoop -benchmem ./internal/rawexec
	$(GO) run ./cmd/simbench -o BENCH_sim.json

# Perf-regression gate: re-measure the headline benchmarks and fail if
# they regress beyond tolerance of the recorded BENCH_sim.json
# trajectory (generous tolerances — see internal/tools/benchcheck).
bench-check:
	$(GO) run ./internal/tools/benchcheck

fuzz:
	$(GO) test ./internal/x86 -fuzz FuzzDecode -fuzztime 30s
	$(GO) test ./internal/rawisa -run - -fuzz FuzzWordRoundTrip -fuzztime 30s
	$(GO) test ./internal/checkpoint -run - -fuzz FuzzRecordDecode -fuzztime 30s
	$(GO) test ./internal/core -run - -fuzz FuzzCarveFabric -fuzztime 30s
	$(GO) test ./internal/core -run - -fuzz FuzzPlanFabric -fuzztime 30s
	$(GO) test ./internal/core -run - -fuzz FuzzQuarantineRecarve -fuzztime 30s
	$(GO) test ./internal/core -run - -fuzz FuzzValidate -fuzztime 30s
	$(GO) test ./internal/opt -run - -fuzz FuzzOptPreservesSemantics -fuzztime 30s
	$(GO) test ./internal/opt -run - -fuzz FuzzRunMatchesFixpoint -fuzztime 30s
	$(GO) test ./internal/opt -run - -fuzz FuzzOptMatchesReference -fuzztime 30s
	$(GO) test ./internal/codegen -run - -fuzz FuzzFinalizeMatchesReference -fuzztime 30s
	$(GO) test ./internal/guest -run - -fuzz FuzzMemoryModel -fuzztime 30s
	$(GO) test ./internal/codecache -run - -fuzz FuzzFIFO -fuzztime 30s
	$(GO) test ./internal/sim -run - -fuzz FuzzKernelQueues -fuzztime 30s

# Quick fuzz pass for CI: enough to catch a decoder, codec, page-table,
# code-cache FIFO, event-kernel queue, optimizer or allocator
# regression, short enough to run on every push.
fuzz-smoke:
	$(GO) test ./internal/x86 -run - -fuzz FuzzDecode -fuzztime 10s
	$(GO) test ./internal/rawisa -run - -fuzz FuzzWordRoundTrip -fuzztime 10s
	$(GO) test ./internal/checkpoint -run - -fuzz FuzzRecordDecode -fuzztime 10s
	$(GO) test ./internal/core -run - -fuzz FuzzCarveFabric -fuzztime 10s
	$(GO) test ./internal/core -run - -fuzz FuzzPlanFabric -fuzztime 10s
	$(GO) test ./internal/core -run - -fuzz FuzzQuarantineRecarve -fuzztime 10s
	$(GO) test ./internal/core -run - -fuzz FuzzValidate -fuzztime 10s
	$(GO) test ./internal/opt -run - -fuzz FuzzOptPreservesSemantics -fuzztime 10s
	$(GO) test ./internal/opt -run - -fuzz FuzzRunMatchesFixpoint -fuzztime 10s
	$(GO) test ./internal/opt -run - -fuzz FuzzOptMatchesReference -fuzztime 10s
	$(GO) test ./internal/codegen -run - -fuzz FuzzFinalizeMatchesReference -fuzztime 10s
	$(GO) test ./internal/guest -run - -fuzz FuzzMemoryModel -fuzztime 10s
	$(GO) test ./internal/codecache -run - -fuzz FuzzFIFO -fuzztime 10s
	$(GO) test ./internal/sim -run - -fuzz FuzzKernelQueues -fuzztime 10s

# End-to-end record/replay smoke: record a faulted run in which a dead
# bank holds dirty lines, check that it rolled back (a non-zero
# rollbacks line under -v), then verify a full replay reproduces it bit
# for bit (tilevm exits non-zero on divergence).
replay-smoke:
	$(GO) run ./cmd/tilevm -workload 181.mcf \
	  -fault-plan 'fail:7@150000,fail:14@300000,fail:2@450000' \
	  -record /tmp/tilevm-replay-smoke.tvrc -v > /tmp/tilevm-replay-smoke.txt
	grep -Eq '^rollbacks +: [1-9]' /tmp/tilevm-replay-smoke.txt
	$(GO) run ./cmd/tilevm -replay /tmp/tilevm-replay-smoke.tvrc | grep -q '^replay: identical'
	rm -f /tmp/tilevm-replay-smoke.tvrc /tmp/tilevm-replay-smoke.txt

# End-to-end tracing smoke: capture a traced run, then validate that
# the Chrome trace JSON parses, shows the tiled layout in timeline
# order, and that the sampler CSV has data rows. The same for a traced
# fleet (which runs a slot at a time, as it would untraced) and a traced
# recorded run, whose replay must write the same trace. Last, an
# invocation core rejects must exit 1 before creating its trace or
# profile file.
trace-smoke:
	$(GO) run ./cmd/tilevm -workload 164.gzip \
	  -trace /tmp/tilevm-trace-smoke.json -trace-interval 10000
	$(GO) run ./internal/tools/tracecheck \
	  /tmp/tilevm-trace-smoke.json /tmp/tilevm-trace-smoke.csv
	$(GO) run ./cmd/tilevm -guests 164.gzip,181.mcf,164.gzip,181.mcf -grid 8x8 \
	  -trace /tmp/tilevm-trace-smoke-fleet.json -trace-interval 50000 >/dev/null
	$(GO) run ./internal/tools/tracecheck \
	  /tmp/tilevm-trace-smoke-fleet.json /tmp/tilevm-trace-smoke-fleet.csv
	$(GO) run ./cmd/tilevm -workload 164.gzip -record /tmp/tilevm-trace-smoke.tvrc \
	  -trace /tmp/tilevm-trace-smoke-rec.json >/dev/null
	$(GO) run ./internal/tools/tracecheck /tmp/tilevm-trace-smoke-rec.json
	$(GO) run ./cmd/tilevm -replay /tmp/tilevm-trace-smoke.tvrc \
	  -trace /tmp/tilevm-trace-smoke-rep.json
	cmp /tmp/tilevm-trace-smoke-rec.json /tmp/tilevm-trace-smoke-rep.json
	rm -f /tmp/tilevm-trace-smoke-rej.json /tmp/tilevm-trace-smoke-rej.prof
	$(GO) run ./cmd/tilevm -workload 164.gzip -slaves 10 \
	  -trace /tmp/tilevm-trace-smoke-rej.json -cpuprofile /tmp/tilevm-trace-smoke-rej.prof; [ $$? -eq 1 ]
	[ ! -e /tmp/tilevm-trace-smoke-rej.json ] && [ ! -e /tmp/tilevm-trace-smoke-rej.prof ]
	rm -f /tmp/tilevm-trace-smoke*.json /tmp/tilevm-trace-smoke*.csv /tmp/tilevm-trace-smoke.tvrc

# End-to-end fleet smoke: four guests on an 8×8 fabric through the CLI,
# exercising carving, admission, and the fleet report.
fleet-smoke:
	$(GO) run ./cmd/tilevm -guests 164.gzip,181.mcf,164.gzip,181.mcf -grid 8x8

# Placement-planner smoke: the quick (8×8) slot-capped oversubscribed
# sweep — deterministic across repeats, and the cost-model planner must
# beat the fixed 4×2 carver on makespan or utilization. Also drives one
# planner fleet through the CLI so the flag stays wired.
placement-smoke:
	$(GO) test -run TestPlacementSmoke -count=1 ./internal/bench
	$(GO) run ./cmd/tilevm -guests 164.gzip,181.mcf,164.gzip,181.mcf -grid 8x8 -planner

# End-to-end fleet fault-tolerance smoke: a fail-stop fault quarantines
# a slot mid-run on an oversubscribed fleet with per-guest deadlines;
# the run must engage the policy layer (a slot actually quarantined) and
# two runs of the same plan must produce byte-identical reports —
# goodput, SLO, and per-guest outcomes included. Then the same fleet
# with deadlines and no fault plan, which runs a slot at a time: two
# guests miss theirs running and one while still queued, and two runs
# must again match byte for byte.
fleet-fault-smoke:
	$(GO) run ./cmd/tilevm -guests 164.gzip,181.mcf,164.gzip \
	  -fault-plan 'fail:5@500000' -deadline 8000000 -v \
	  > /tmp/tilevm-fleet-fault-a.txt
	$(GO) run ./cmd/tilevm -guests 164.gzip,181.mcf,164.gzip \
	  -fault-plan 'fail:5@500000' -deadline 8000000 -v \
	  > /tmp/tilevm-fleet-fault-b.txt
	cmp /tmp/tilevm-fleet-fault-a.txt /tmp/tilevm-fleet-fault-b.txt
	grep -q 'quarantined' /tmp/tilevm-fleet-fault-a.txt
	$(GO) run ./cmd/tilevm -guests 164.gzip,181.mcf,164.gzip \
	  -deadline 1000000 -v > /tmp/tilevm-fleet-deadline-a.txt
	$(GO) run ./cmd/tilevm -guests 164.gzip,181.mcf,164.gzip \
	  -deadline 1000000 -v > /tmp/tilevm-fleet-deadline-b.txt
	cmp /tmp/tilevm-fleet-deadline-a.txt /tmp/tilevm-fleet-deadline-b.txt
	grep -q 'missed its deadline.*still running' /tmp/tilevm-fleet-deadline-a.txt
	grep -q 'missed its deadline.*still queued' /tmp/tilevm-fleet-deadline-a.txt
	rm -f /tmp/tilevm-fleet-fault-a.txt /tmp/tilevm-fleet-fault-b.txt \
	  /tmp/tilevm-fleet-deadline-a.txt /tmp/tilevm-fleet-deadline-b.txt

# End-to-end daemon smoke: start tilevmd on an ephemeral port, submit
# two guests over HTTP, poll them to completion, scrape /metrics, then
# SIGTERM and assert a graceful drain with exit 0.
tilevmd-smoke:
	$(GO) build -o /tmp/tilevmd-smoke-bin ./cmd/tilevmd
	$(GO) run ./internal/tools/servicesmoke -bin /tmp/tilevmd-smoke-bin
	rm -f /tmp/tilevmd-smoke-bin

# The compiled-guest probes in testdata/cguests: freestanding C (no
# libc, no 64-bit divide, no floating point) built at three
# optimisation levels into static i386 ELF files. The ELF files are
# checked in, so TestCompiledGuests needs no compiler; re-run this
# after editing a probe.
CGUEST_CFLAGS = -m32 -static -nostdlib -ffreestanding -fno-pic -no-pie -march=i386 -mno-sse

cguests:
	for p in crc qsort interp; do for o in O0 O2 Os; do \
	  gcc $(CGUEST_CFLAGS) -$$o -o testdata/cguests/$$p.$$o testdata/cguests/$$p.c || exit 1; \
	done; done

# Verify that every relative link in the markdown docs points at a file
# that exists.
linkcheck:
	$(GO) run ./internal/tools/linkcheck README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs
