# regvirt build/verify entry points. `make verify` is the gate every
# change must pass: build, vet, and the full test suite under the race
# detector (the jobs subsystem is concurrent; -race is not optional).

GO ?= go

.PHONY: all build vet test race verify sched chaos recovery cluster nemesis fuzz bench bench-gpu bench-check modes obs simcost loc

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

verify: build vet race

# Per-backend register-file suite under the race detector: the mode
# grammar, both wrapper backends' unit tests, the five-way device
# determinism matrix (each launch alone and twice at once), checkpoint/resume
# byte-identity per mode, the emulator differential per backend, the
# jobs cache-key separation of modes, the head-to-head figure, and
# regvsim's local-equals-remote table (every backend's result encoding
# through both the in-process and the service path). CI runs this as
# its own job.
modes:
	$(GO) test -race -count=1 \
		-run 'Mode|Backend|ParseMode|RegCache|SMemSpill|ResumeMatches|ResumeGPU|ParallelMatches|Emulator|LocalMatchesRemote' \
		./internal/rename ./internal/sim ./internal/workloads \
		./internal/jobs ./internal/experiments ./cmd/regvsim ./cmd/regvd

# Multi-tenant scheduling proofs, twice, under the race detector:
# stride fairness and the starvation bound, quota and admission
# refusals, checkpoint preemption with byte-identical resume, and the
# tenant config/HTTP/client surface. CI runs this as its own job.
sched:
	$(GO) test -race -count=2 \
		-run 'Stride|FairShare|Quota|Admission|MaxRunning|Preempt|Tenant|BadCheckpoint|Sched' \
		./internal/jobs/... ./cmd/regvd

# Fault-injection and resilience drills, twice, under the race
# detector: chaos load, shedding, panic containment, invariant 500s,
# graceful shutdown. CI runs this as its own job.
chaos:
	$(GO) test -race -count=2 \
		-run 'Chaos|Fault|Shed|Overload|Shutdown|Panic|Invariant|Eviction|CloseDuring|Retr' \
		./internal/faultinject ./internal/jobs/... ./internal/sim ./cmd/regvd

# Crash-recovery proof: a real regvd subprocess is SIGKILLed mid-batch
# (and SIGTERMed, and SIGKILLed under injected latency), restarted on
# the same -data-dir, and every accepted job must finish byte-identical
# to a never-killed control run. CI runs this as its own job.
recovery:
	$(GO) test -race -count=1 -run 'CrashRecovery|RecoveryDataDir' ./cmd/regvd

# Cluster failover proof under the race detector: the in-process
# router/shipping/standby suite, then four real regvd binaries (three
# shards journal-shipping to a warm-standby hub) behind a real regvd
# router; the shard owning a long job is SIGKILLed mid-batch under
# injected faults and every accepted job must still complete through
# the router, byte-identical to a never-killed control. CI runs this
# as its own job.
cluster:
	$(GO) test -race -count=1 ./internal/cluster
	$(GO) test -race -count=1 -run 'ClusterFailover|ParsePeers|ValidateCluster' ./cmd/regvd

# Observability proofs under the race detector: the obs package's
# tracer/log/prom/chrome units, the shard-level trace and Prometheus
# endpoints (an async refusal's error reaches its trace), the
# jobs.submit span as a submit's one timer (the /metrics quantiles and
# the retry hint read from it) and the result cache as its one outcome
# counter, one exact tenant series per scheduler tenant, and the
# cluster-level proofs — a trace stitched across router and shards over
# real TCP, a malformed trace ID answered 404 without a fan-out, and the
# router's shard-labelled Prometheus aggregation passing the
# exposition-format linter. Profile-off purity (a profiled run is
# byte-identical to an unprofiled one) rides along from internal/sim.
# CI runs this as its own job.
obs:
	$(GO) test -race -count=1 ./internal/obs
	$(GO) test -race -count=1 \
		-run 'Trace|Prom|TenantSeries|Profile|RetriesExhausted|SubmitSpan' \
		./internal/jobs ./internal/jobs/client ./internal/sim
	$(GO) test -race -count=1 \
		-run 'TestClusterTraceStitch|TestRouterTraceMalformedID|TestRouterPromAggregation' ./internal/cluster

# Nemesis suite under the race detector: the fencing wire contract and
# shipper latch/rejoin in-process (TestFencingShipperLatchesAndRejoins,
# TestShipFencedAtLowerEpoch), a router started after an adoption
# relearning its epoch and granting the fenced owner a higher one
# (TestFencedOwnerRejoinsRestartedRouter), the standby store's fence
# rule checked under the lock that writes the copy and raced against an
# adoption (TestStandbyFencePersistsAcrossReopen,
# TestStandbyFenceRacesApply), the standby resync races, the ship
# stream's lifecycle (re-dial, a break under a batch, a bounded Close, a
# partition cutting an open stream) and its decoder's seeds, the
# nemesis primitives, then the full Jepsen-style drill — five real
# regvd binaries under a seeded schedule of SIGKILL, asymmetric
# partition (adoption fences the deposed primary out), SIGSTOP, and a
# restart plus an at-rest bit-flip (healed by the read that finds it),
# with every acked job completing byte-identical to a never-faulted
# control and at most one writer per (keyspace, epoch). CI runs this
# as its own job.
nemesis:
	$(GO) test -race -count=1 -run 'Fenc|StandbyFence|StandbyResync|ShipStream' ./internal/cluster ./internal/jobs/store
	$(GO) test -race -count=1 ./internal/faultinject ./internal/integrity
	$(GO) test -race -count=1 -run 'TestNemesis' -v ./cmd/regvd

# Short fuzz smoke: the journal-replay parser (never panics, accepts
# exactly the longest valid prefix), the standby's apply of shipped
# journal bytes (a batch appends exactly the frames a correct copy
# takes; a snapshot installs only if it replays whole), the standby's
# ship stream decoder (one ack per whole message, nothing applied of a
# message cut short or past the size bound, the copy the store's own
# calls would leave), the ISA text
# parser (what parses prints and re-parses unchanged), and the
# integrity-envelope decoders behind every result/checkpoint read
# (differential against an independent open+decode; corrupt bytes are
# misses, never wrong answers). ~30s per target; CI runs this as its
# own job. FuzzResultDecode minimizes each new input for at most 1s, not
# the 60s default: its salvage path JSON-decodes the spec of any input
# whose header splits, so mutations keep finding new encoding/json
# coverage, and at the default the target spends its 30s minimizing
# rather than fuzzing. FuzzShipStream does the same: each input opens
# two standby stores and fsyncs, so minimizing a long stream one byte
# at a time takes the default's whole minute.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzJournalReplay -fuzztime=30s ./internal/jobs/store
	$(GO) test -run=^$$ -fuzz=FuzzShipFrames -fuzztime=30s ./internal/jobs/store
	$(GO) test -run=^$$ -fuzz=FuzzShipStream -fuzztime=30s -fuzzminimizetime=1s ./internal/cluster
	$(GO) test -run=^$$ -fuzz=FuzzResultDecode -fuzztime=30s -fuzzminimizetime=1s ./internal/jobs/store
	$(GO) test -run=^$$ -fuzz=FuzzCheckpointDecode -fuzztime=30s ./internal/jobs/store
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=30s ./internal/isa

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# The whole-device engine on three workloads under four backends;
# regenerates BENCH_gpu.json at the repo root (medians of five
# repetitions).
bench-gpu:
	$(GO) test -bench=BenchmarkRunGPU -benchtime=2x -count=5 -run=^$$ .

# Simulator cost checks the race detector would distort, so `verify`
# cannot run them: the steady-state zero-allocation test (windows that
# span slept cycles), the per-launch allocation bounds (a whole-device
# RunGPU at most 76 allocations, a single-SM Run at most 39, on all five
# backends; 69 and 35 measured), the kernel front end's allocation
# budget (parse + compile of generated kernels), the pinned results
# against the non-race golden, the pool's live heap per job
# (TestPoolKeepsNoKernels: a pool keeps results, not compiled kernels;
# TestPoolKeepsNoKernelText: nor its jobs' kernel sources), the
# tracer's cost (TestSpanAllocations: 3 allocations a span;
# TestTracerHeap: a default-capacity tracer's live heap once its ring
# has wrapped, and the 80-byte bound on a ring slot;
# TestTracerHeapBounded: the same when no two spans share a string,
# and an intern table holding exactly what the live slots name), the
# ship queue's reuse of an acked batch's buffer
# (TestShipQueueReusesAckedBatch: Queue allocates nothing when the frame
# fits it), and BenchmarkSim once per workload (ns and allocations per
# simulated cycle). CI runs this in its bench job.
simcost:
	$(GO) test -count=1 -run 'TestSteadyStateAllocatesNothing|TestLaunchAllocations' ./internal/sim
	$(GO) test -count=1 -run 'TestFrontEndAllocations' ./internal/compiler
	$(GO) test -count=1 -run 'TestResultsPinned|TestPoolKeepsNoKernels|TestPoolKeepsNoKernelText' ./internal/jobs
	$(GO) test -count=1 -run 'TestSpanAllocations|TestTracerHeap' ./internal/obs
	$(GO) test -count=1 -run 'TestShipQueueReusesAckedBatch' ./internal/cluster
	$(GO) test -run=^$$ -bench='^BenchmarkSim$$' -benchtime=1x .

# The end-to-end benchmark (bench/) is its own module, so the root
# build and test never compile it: vet it and run its self-test
# (~15s) against the current tree. CI runs this as its own job.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Size of the tracked tree: lines of non-test Go outside bench/ (the
# figure the ROADMAP's quality aim tracks), then bench/'s own.
# Informational, not a gate; CI's lint job logs it on every run.
loc:
	@echo "non-test Go outside bench/: $$(git ls-files '*.go' | grep -v _test.go | grep -v '^bench/' | xargs cat | wc -l)"
	@echo "non-test Go in bench/: $$(git ls-files 'bench/*.go' | grep -v _test.go | xargs cat | wc -l)"
