# Development targets. `make check` is the gate used before merging: the
# tmflint static analyzers (fail fast, they are cheap), the tier-1 suite
# plus vet, the race-detector runs over the concurrency-heavy packages
# (commit fan-out, group commit, the multithreaded DISCPROCESS scheduler,
# process pairs, the simulated network), the DiscWorkers determinism
# oracle, and a bounded fuzz smoke over the wire-format round-trips.

GO ?= go

TMFLINT := bin/tmflint
TMFLINT_SRC := $(wildcard cmd/tmflint/*.go internal/analysis/*/*.go)

.PHONY: all build test bench-test check lint race fuzz chaos-short stress-short crash-matrix crash-matrix-short bench experiments soak soak-short load-short profile

all: check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# bench/ is a nested module, so the root `go test ./...` never reaches its
# unit tests (quantiles, schedule determinism, workload mix, BENCHMARK.json
# agreement).
bench-test:
	cd bench && $(GO) test ./...

# The vettool is rebuilt only when its sources change; `go vet` then runs
# all tmflint analyzers over the whole tree in one pass. Deliberate
# exceptions are `//lint:allow <analyzer> <reason>` directives at the
# flagged line (see DESIGN.md §11).
$(TMFLINT): $(TMFLINT_SRC)
	$(GO) build -o $(TMFLINT) ./cmd/tmflint

lint: $(TMFLINT)
	$(GO) vet -vettool=$(TMFLINT) ./...

# Race-detector runs over the packages with real concurrency: the TMF
# commit/abort overlap of local and child work, the audit trail's group commit, the striped lock
# manager, the DISCPROCESS scheduler and its handlers (admission property
# test, browse-starvation and stale-fill regressions, takeover
# re-completion), the record cache whose fill races those handlers'
# writes, the observability layer they all record into, the simulated
# EXPAND network and its fault injector, the process-pair runtime, the
# message system's pooled reply slots and the File System and server-class
# callers that share them, the
# trace-oracle chaos test (the long soak stays race-free via the package
# run above, but is too slow under -race), and the node lifecycle — Crash,
# Recover and Stop swap a node's monitor, File System client and
# DISCPROCESSes through one start path and one halt path (and a crash
# leaves no abort behind to land on the next incarnation). The ScreenCOBOL
# interpreter, load.ScobolTx and the workload driver run too, because the
# pooled requesters cross workload.Driver's terminal goroutines, as the parked flush and force
# workers (pair) cross requests; a burst of commits then Stop checks that
# those workers end, as Stop with an outcome undelivered or a participant
# in doubt checks that its owner and watcher end. The participant vote
# race (a partition that starts and heals while a participant forces),
# every abort route at a voted
# participant, a remote begin answered after its abort, the abort's
# ABORTING sent before the node's own backout, the write-behind counts, the backout's checkpoints per
# volume and unreadable-record count, the takeover of an undo batch and
# the audit trail's backout scans repeat twenty times, and so do the
# safe-delivery tests: a heal resends a swallowed ENDED or ABORTING, a
# flapping link delivers once, and an unreachable child holds back none.
# So do a decision made while a reloaded CPU's state table is still empty,
# and the pinned per-node protocol traces of six small commits and aborts.
# So do a request to a crashed node, answered at once, and every
# registered error's identity over a local, a two-node and a relayed call
# (a line of their own: the regex above would pick up root tests).
# So do the DISCPROCESS scheduler's wake paths: each event that can make a
# job admissible wakes one idle worker, not all of them, so a lost wakeup
# would leave a job queued with idle workers. The admission property test
# and the browse-door tests repeat beside them.
# The experiments harness runs every figure and claim: T9's concurrent
# committers, T11's DISCPROCESS workers and T14's phase-one hook goroutine.
race:
	$(GO) test -race ./internal/obs/... ./internal/tmf/... ./internal/audit/... ./internal/lock/... ./internal/dbfile/... ./internal/discproc/... ./internal/workload/... ./internal/expand/... ./internal/pair/... ./internal/dst/... ./internal/rollforward/... ./internal/paxoscommit/... ./internal/msg/... ./internal/fsys/... ./internal/appserver/... ./internal/scobol/... ./internal/load/...
	$(GO) test -race ./internal/experiments/
	$(GO) test -race -run 'TestChaosTraceOracle|TestHotPathMixScheduleOracle|Recover|Rollforward|TestPurgeAuditTrails|TestSharedAuditGroup|TestArchiveAfterPresumedAbort|TestStopEnds|TestWriteBehind|TestCrashLeavesNoAbortBehind' .
	$(GO) test -race -count=20 -run 'TestVotedParticipantNeverBacksOutAlone|TestVotedParticipantAbortCauses|TestLateChildIsAborted|TestAbortReachesChildrenFirst|WritesBehind|WriteBehind|TestAbortCheckpointsPerVolume|TestBackoutCountsUnreadableRecords|TestTakeoverCompletesUndoBatch|TestUndoAfterTakeoverIsIdempotent|TestScan|TestHealResendsSwallowedEnded|TestHealResendsSwallowedAborting|TestSafeDeliverySurvivesRepeatedPartitions|TestFlushSafeQueueNoHeadOfLineBlocking|TestDecisionsIgnoreStaleReplica|TestGoldenProtocolTraces' ./internal/tmf/ ./internal/discproc/ ./internal/audit/
	$(GO) test -race -count=20 -run 'TestCrashedNodeRequestFailsFast|TestRegisteredErrorsKeepIdentity|TestUndeliveredIsCompletedNo' . ./internal/msg/
	$(GO) test -race -count=20 -run 'TestSerialStreamWakesOneWorkerPerJob|TestOneCompletionRunsTwoQueuedJobs|TestWideJobRunsWhenBrowseEnds|TestJobsQueuedDuringQuiesceRunAfterResume|TestWorkersEndWithTheirCPU|TestSchedulerAdmissionInvariant|TestWideOpsNotStarvedByBrowses|TestTxScopedOpsDoNotWaitForBrowses' ./internal/discproc/

# Fuzz smoke: a few seconds per target over the transid and message
# wire-format round-trips (the frame header and every registered payload
# tag) and the audit trail's segment codec ('go test -fuzz' accepts one
# target at a time).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 5s ./internal/txid/
	$(GO) test -run '^$$' -fuzz FuzzIDRoundTrip -fuzztime 5s ./internal/txid/
	$(GO) test -run '^$$' -fuzz FuzzUnmarshal -fuzztime 5s ./internal/msg/
	$(GO) test -run '^$$' -fuzz FuzzMessageRoundTrip -fuzztime 5s ./internal/msg/
	$(GO) test -run '^$$' -fuzz FuzzFrameBitFlip -fuzztime 5s ./internal/msg/
	$(GO) test -run '^$$' -fuzz FuzzPayloadRoundTrip -fuzztime 5s ./internal/msg/
	$(GO) test -run '^$$' -fuzz FuzzRecordRoundTrip -fuzztime 5s ./internal/audit/
	$(GO) test -run '^$$' -fuzz FuzzOpenTrail -fuzztime 5s ./internal/audit/

# Short, seeded, race-enabled run of the banking workload over a lossy,
# duplicating, reordering west–east line with link flaps: the fast gate
# for the unreliable-EXPAND + idempotent-2PC path.
chaos-short:
	$(GO) test -race -short -run TestChaosLossyLink -count=1 .

# Short, race-enabled run of the DiscWorkers determinism oracle: the same
# conflicting/non-conflicting mix at DiscWorkers=8 — once with a roomy
# cache, once with a pressed cache, a miss penalty and dedicated browsers —
# must leave volume contents byte-identical to the DiscWorkers=1 serial
# run, with every trace passing the Figure 3 oracle.
stress-short:
	$(GO) test -race -short -run TestDiscWorkersStressOracle -count=1 .

# Crash-point recovery matrix: damage the dumped trail media at every
# record boundary, mid-record, and with single-bit flips in header, body,
# chain and checksum; the reopened trail must report the torn tail and
# ROLLFORWARD must recover exactly the committed surviving prefix. The
# -short subset (every fifth record, fewer variants) runs in `make check`.
crash-matrix:
	$(GO) test -run TestCrashMatrix -count=1 -v ./internal/audit/

crash-matrix-short:
	$(GO) test -short -run TestCrashMatrix -count=1 ./internal/audit/

# Deterministic fault-schedule exploration (the DST harness). `make soak`
# explores SOAK_SEEDS consecutive seeds starting at SOAK_START, minimizing
# any failure by delta debugging; `make soak-short` is the race-enabled
# 100-seed gate that runs as part of `make check`, followed by 24 seeds of
# the total-failure shape (one mixed schedule in four has an outage; every
# total-failure schedule restarts a node). Any failing seed reproduces
# exactly with: go run ./cmd/dst -seed <seed> [-shape total-failure] -v
SOAK_SEEDS ?= 1000
SOAK_START ?= 1
SOAK_CORPUS ?=
SOAK_SHAPE ?= mixed
soak:
	$(GO) run ./cmd/dst -seed $(SOAK_START) -schedules $(SOAK_SEEDS) -shape $(SOAK_SHAPE) -minimize $(if $(SOAK_CORPUS),-corpus $(SOAK_CORPUS))

soak-short:
	$(GO) run -race ./cmd/dst -seed $(SOAK_START) -schedules 100
	$(GO) run ./cmd/dst -seed $(SOAK_START) -schedules 24 -shape total-failure

# A few seconds of open-loop load from workload.Driver's terminals under
# the race detector, with the Figure-3 trace oracle validating every
# captured trace afterwards (TestLoadShortOpenLoop in load_test.go).
load-short:
	$(GO) test -race -short -run TestLoadShortOpenLoop -count=1 .

# Lint runs first: a static-invariant violation should fail the gate in
# seconds, before the race and soak stages spend minutes.
check: build
	$(MAKE) lint
	$(GO) vet ./...
	$(GO) test ./...
	$(MAKE) bench-test
	$(MAKE) race
	$(MAKE) fuzz
	$(MAKE) chaos-short
	$(MAKE) stress-short
	$(MAKE) crash-matrix-short
	$(MAKE) soak-short
	$(MAKE) load-short

bench:
	$(GO) test -bench=. -benchmem .

# One-command hot-path hunt through the standard toolchain: run one root
# benchmark under the CPU and heap profilers and print the top consumers —
# of CPU time, of allocated objects (the count allocs_per_op measures) and
# of allocated bytes, line by line, every allocation recorded.
# alloc_kb_per_op follows bytes, not objects: a slice regrown by append is
# a few objects but several times its bytes. The default is the TP1 record
# path: BEGIN, three locked reads and updates over two audited volumes, a
# history append and END.
PROFILE_BENCH ?= BenchmarkTP1RecordPath
profile:
	$(GO) test -run '^$$' -bench $(PROFILE_BENCH) -benchmem -cpuprofile cpu.pprof -memprofile mem.pprof -memprofilerate 1 .
	$(GO) tool pprof -top -nodecount 20 cpu.pprof
	$(GO) tool pprof -sample_index=alloc_objects -lines -top -nodecount 30 mem.pprof
	$(GO) tool pprof -sample_index=alloc_space -lines -top -nodecount 20 mem.pprof

experiments:
	$(GO) run ./cmd/tmfbench -exp all
