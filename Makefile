GO ?= go

.PHONY: all tier1 fmt race selectors snapshot-sites clock-sites read-sites stats-sites inbox-sites coverage-sites fuzz-smoke chaos chaos-reconfig durable-race pipeline-race shard-race multicore-race overload-race wan-race benchmark benchmark-test paper bench-overload-quick microbench benchstat clean

# The race gates' test selections, each written once: `-run 'regex'`
# then the packages it applies to. `make selectors` checks every
# (regex, package) pair still selects something.
RECONFIG_RACE = -run 'Reconfig|OnlineJoin|ChaosCrashRejoin|RemoveReplica|TCPOnlineJoin|GracefulShutdown|Learner|SetPeers|Prune|SnapshotMembers|TailBitFlip|Checkpoint' ./internal/cluster ./internal/omega ./internal/storage ./internal/chaos .
DURABLE_RACE = -run 'Durable|PersistFailure|ConcurrentFlush|GroupCommit|Buffered|SyncPolicy|AsyncRewrite|Poison' ./internal/storage ./internal/cluster ./internal/chaos
PIPELINE_RACE = -run 'Pipelin|Linearizability|Recovery' ./internal/core ./internal/chaos ./internal/paxos
SHARD_RACE = -run 'Shard|GroupMux|CrossGroup|OpenFile|WithPrefix|Rank|Group' ./internal/shard ./internal/transport ./internal/storage ./internal/metrics ./internal/omega ./internal/cluster .
MULTICORE_RACE = -run 'ParallelRead|ReadView|ReadPool|Sink|Inbox|DecodeStage|ReplyWriter|Coalesc|Multicore' ./internal/core ./internal/service ./internal/transport
OVERLOAD_RACE = -run 'Overload|RetryAfter|ReplyDrop|Shed|OpenLoop' ./internal/client ./internal/transport ./cmd/benchpaxos
OVERLOAD_TCP_RACE = -run 'TCPIdempotentRetryAcrossLeaderCrash' .
WAN_RACE = -run 'Preempt|Cost|Rank|Near|Vouch|Confirm|Deposed|ReadExpires|ExclusiveTxnOpen|WAN|Wan|ProfileTimeout|ProfileByName|RegionPartition' ./internal/omega ./internal/core ./internal/client ./internal/netem ./internal/cluster ./internal/chaos

all: tier1

# Tier-1: the gate every change must keep green.
tier1: fmt
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

# Formatting gate: fails listing any file gofmt would rewrite.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Race tier: vet + full test suite under the race detector. The chaos
# and transport tests are required to be race-clean.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

# A renamed or merged test silently drops out of a gate that selects it
# by regex. This fails when any (-run regex, package) pair above lists
# no test; run it before the gates.
selectors:
	@fail=0; \
	check() { re=$$2; shift 2; for pkg in "$$@"; do \
		$(GO) test -list "$$re" $$pkg | grep -q '^Test' || \
			{ echo "selectors: -run '$$re' selects no test in $$pkg"; fail=1; }; \
	done; }; \
	check $(RECONFIG_RACE); check $(DURABLE_RACE); check $(PIPELINE_RACE); \
	check $(SHARD_RACE); check $(MULTICORE_RACE); check $(OVERLOAD_RACE); \
	check $(OVERLOAD_TCP_RACE); check $(WAN_RACE); \
	exit $$fail

# State moves one way (DESIGN.md "State transfer"): core copies the full
# service state at three named places — the base state New captures
# while no durable snapshot exists, full mode's wave top, and the durable
# snapshot — and bulk state never rides in a CatchUpResp. Nothing is
# copied to undo speculation: a demoted leader re-derives its state from
# the durable snapshot and the log. This fails when a fourth
# svc.Snapshot() call appears in non-test internal/core, or when any
# non-test file outside the codec builds a CatchUpResp with State or
# StateAt set.
SNAPSHOT_SITES_MAX = 3
snapshot-sites:
	@n=$$(cat $$(ls internal/core/*.go | grep -v _test) | grep -c 'svc\.Snapshot()'); \
	if [ $$n -gt $(SNAPSHOT_SITES_MAX) ]; then \
		echo "snapshot-sites: $$n svc.Snapshot() calls in non-test internal/core, limit $(SNAPSHOT_SITES_MAX)"; exit 1; fi; \
	set=$$(git ls-files '*.go' | grep -v -e _test.go -e '^internal/wire/' | \
		xargs grep -n -A6 'CatchUpResp{' | grep -E '\bState(At)?:' || true); \
	if [ -n "$$set" ]; then \
		echo "snapshot-sites: CatchUpResp carries state again:"; echo "$$set"; exit 1; fi; \
	echo "snapshot-sites: $$n of $(SNAPSHOT_SITES_MAX) svc.Snapshot() sites, no CatchUpResp state"

# The step function (DESIGN.md §20): protocol code reads time only as the
# step's now, and core's tests drive it on the simulator's virtual clock.
# This fails when any non-test internal/core file but the wall-clock
# driver reads the clock or arms a timer, or when an internal/core test
# sleeps outside the two that run replicas on the wall clock: the read
# pool's (parallelread_test.go) and TestSimRecordReplay's live half
# (simrun_test.go).
clock-sites:
	@hits=$$(grep -nE 'time\.(Now|Since|Until|After|AfterFunc|NewTimer|NewTicker|Tick|Sleep)\(' \
		$$(ls internal/core/*.go | grep -v -e _test.go -e /driver.go) || true); \
	if [ -n "$$hits" ]; then echo "clock-sites: wall clock outside driver.go:"; echo "$$hits"; exit 1; fi; \
	hits=$$(grep -n 'time\.Sleep(' $$(ls internal/core/*_test.go | \
		grep -v -e /parallelread_test.go -e /simrun_test.go) || true); \
	if [ -n "$$hits" ]; then echo "clock-sites: internal/core tests sleeping on the wall clock:"; echo "$$hits"; exit 1; fi; \
	echo "clock-sites: no wall clock in internal/core outside driver.go, no sleep in its simulated tests"

# One read rule (DESIGN.md §18): a read executes on the state at the
# commit point, through a service.ReadView — a service without
# ReadViewer gets service.AsReadViewer's snapshot adapter — so there is
# no live-state read site. This fails listing every svc.Execute( call in
# non-test internal/core unless there is exactly one in each of the two
# write paths: executeWrite and onRequest's unreplicated Original
# baseline.
READ_SITES = executeWrite onRequest
read-sites:
	@sites=$$(awk '/^func /{ fn = $$0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[(\[].*/, "", fn) } \
		/svc\.Execute\(/ { print FILENAME ":" FNR ": " fn }' $$(ls internal/core/*.go | grep -v _test.go)); \
	got=$$(echo "$$sites" | awk '{ print $$2 }' | sort | tr '\n' ' '); \
	want=$$(echo $(READ_SITES) | tr ' ' '\n' | sort | tr '\n' ' '); \
	if [ "$$got" != "$$want" ]; then \
		echo "read-sites: want one svc.Execute call in each of $(READ_SITES), found:"; echo "$$sites"; exit 1; fi; \
	echo "read-sites: svc.Execute only in $(READ_SITES), no live-state read site"

# One counter surface (DESIGN.md §11): every counter is read by name
# through the metrics registry. This fails when non-test Go outside
# internal/chaos and benchmark/ declares a Stats() method, a Meter type,
# or a Drops() uint64 other than the in-process fabric's (the benchmark
# reads it) and the client-side SessionMux's (clients keep no registry).
stats-sites:
	@hits=$$(git ls-files '*.go' | grep -v -e _test.go -e '^internal/chaos/' -e '^benchmark/' | \
		xargs grep -nE '^func \([^)]*\) Stats\(|^type Meter\b|^func \([^)]*\) Drops\(\) uint64' | \
		grep -vE '\(\w+ \*(Network|SessionMux)\) Drops\(\)' || true); \
	if [ -n "$$hits" ]; then echo "stats-sites: counters read outside the registry:"; echo "$$hits"; exit 1; fi; \
	echo "stats-sites: every counter is read through the registry"

# One receive queue (DESIGN.md §6): every transport and multiplexer
# receives through transport.Inbox, which owns the one overflow rule.
# This fails listing each receive channel built in non-test Go outside
# internal/transport/inbox.go and benchmark/.
inbox-sites:
	@hits=$$(git ls-files '*.go' | grep -v -e _test.go -e '^benchmark/' -e '^internal/transport/inbox.go$$' | \
		xargs grep -n 'make(chan \*wire\.Envelope' || true); \
	if [ -n "$$hits" ]; then echo "inbox-sites: receive queues outside transport.Inbox:"; echo "$$hits"; exit 1; fi; \
	echo "inbox-sites: every receive queue is a transport.Inbox"

# "By nothing" is 0 (the ROADMAP's keep-or-delete ledger), at function
# granularity: tier-1 reaches every non-test function of core, wire,
# transport, storage and gateway. This runs tier-1 with coverage over
# those five packages and fails listing each function `go tool cover -func` reports
# at 0.0% that testdata/coverage_allow.txt does not name. An allowlist
# line is "<file>:<function> <reason>"; a line without a reason fails.
COVERAGE_PKGS = gridrep/internal/core,gridrep/internal/wire,gridrep/internal/transport,gridrep/internal/storage,gridrep/internal/gateway
COVERAGE_ALLOW = testdata/coverage_allow.txt
coverage-sites:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	grep -vE '^(#|$$)' $(COVERAGE_ALLOW) > $$tmp/allow || true; \
	bad=$$(awk 'NF < 2' $$tmp/allow); \
	if [ -n "$$bad" ]; then echo "coverage-sites: allowlist lines without a reason:"; echo "$$bad"; exit 1; fi; \
	awk '{ print $$1 }' $$tmp/allow > $$tmp/keys; \
	$(GO) test -count 1 -coverpkg=$(COVERAGE_PKGS) -coverprofile=$$tmp/prof ./... > $$tmp/log 2>&1 || \
		{ cat $$tmp/log; exit 1; }; \
	zero=$$($(GO) tool cover -func=$$tmp/prof | \
		awk '$$NF == "0.0%" { sub(/^gridrep\//, "", $$1); sub(/:[0-9]+:$$/, "", $$1); print $$1 ":" $$2 }' | \
		grep -vxF -f $$tmp/keys || true); \
	if [ -n "$$zero" ]; then echo "coverage-sites: functions no tier-1 test reaches:"; echo "$$zero"; exit 1; fi; \
	echo "coverage-sites: tier-1 reaches every function in core, wire, transport, storage and gateway"

# Fuzz smoke: each decoder fuzz target explores FUZZTIME beyond its seed
# corpus (testdata/fuzz/, which tier-1 already replays). A failure
# writes the crashing input under that testdata directory.
FUZZTIME = 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzKVApplyDelta$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzKVRestore$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEnvelope$$' -fuzztime $(FUZZTIME) ./internal/wire

# Just the socket-level chaos suite (transport + chaos), race-enabled.
chaos:
	$(GO) test -race ./internal/transport ./internal/chaos

# Online-reconfiguration suite under the race detector (PR 6): snapshot
# catch-up, consensus-decided membership change, WAL pruning, the
# crash-rejoin-via-snapshot chaos scenario, the join-under-link-chaos
# acceptance test, the TCP -join test, and graceful-shutdown WAL
# flushing.
chaos-reconfig:
	$(GO) test -race -count 1 $(RECONFIG_RACE)

# Durability-pipeline suite under the race detector: group commit and
# sync policies in the WAL, the persister's fail-stop on storage errors,
# crash/restart with memory loss, and the durable chaos scenario.
durable-race:
	$(GO) test -race -count 1 $(DURABLE_RACE)

# The one-wave suite under the race detector (DESIGN.md §10): the
# one-wave rule and a leader switch mid-wave, the linearizability
# bracket with batching off and on, recovery truncation, and the leader
# crash with a wave in flight. core's tests run on the simulator, one
# goroutine; the wall-clock tests that give the race detector work here
# are internal/chaos's TestPipelinedLeaderCrashMidFlight and
# internal/core's TestReadLinearizabilityMulticore.
pipeline-race:
	$(GO) test -race -count 1 $(PIPELINE_RACE)

# Sharded-consensus suite under the race detector (PR 7, DESIGN.md §13):
# the shard router, the group multiplexer, per-group WAL directory
# creation, the sharded in-process cluster scenarios, the groups={1,4}
# TCP linearizability matrix, and the cross-group transaction refusal.
shard-race:
	$(GO) test -race -count 1 $(SHARD_RACE)

# Multi-core gate at a widened scheduler (PR 8, DESIGN.md §14): tier-1
# plus the pipeline/shard race suites at GOMAXPROCS=4, then the new
# concurrency matrix under the race detector — the parallel read pool
# vs write commits vs snapshot rewrites vs metrics scrapes, the
# read-view copy-on-write service contract, the off-loop decode stage,
# and the linearizability bracket at GOMAXPROCS ∈ {1,4}. In internal/core
# the concurrent ones are the read pool's wall-clock tests,
# TestParallelRead* and TestReadLinearizabilityMulticore.
# The leadership *placement* tests (group g lands on replica g mod N)
# run unskipped since PR 10: a rank function now opts the elector into
# rank preemption, so the preferred replica reclaims its group after
# the stability holddown even when a GOMAXPROCS=4 boot race let a
# sibling claim first (DESIGN.md §16).
multicore-race:
	GOMAXPROCS=4 $(GO) test -count 1 ./...
	GOMAXPROCS=4 $(GO) test -race -count 1 $(PIPELINE_RACE)
	GOMAXPROCS=4 $(GO) test -race -count 1 $(SHARD_RACE)
	GOMAXPROCS=4 $(GO) test -race -count 1 $(MULTICORE_RACE)

# The canonical benchmark (BENCHMARK.json, benchmark/README.md): four
# named workloads, end-to-end and per-layer metrics. It is its own Go
# module, so tier-1 neither builds nor tests it — benchmark-test does,
# and must stay green whenever the API it compiles against changes.
benchmark:
	bash benchmark/run.sh

benchmark-test:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# The paper's evaluation (§4) in virtual time: the seeded simulator runs
# every row — §4.1 response times, Table 1, Figures 5-9, §4.3 — and
# prints the tables with each DESIGN.md §4 shape predicate's verdict.
# Tier-1 asserts the same predicates (TestPaper) and the protocol-cost
# golden (TestProtocolCostGolden, internal/core/testdata/protocol_cost.txt).
paper:
	@out=$$($(GO) test -count 1 -run '^TestPaper$$' -v ./internal/core); st=$$?; \
		echo "$$out" | grep -v -e '^=== RUN' -e '^--- PASS' -e '^    --- PASS' -e '^    --- SKIP' -e 'paper_test.go'; exit $$st

# Gateway / overload suite under the race detector at GOMAXPROCS=4
# (PR 9, DESIGN.md §15): the full edge package (admission, fair
# queueing, dedup window, session mux), the typed-overload client
# contract, the reply-drop accounting split, the open-loop harness of
# cmd/benchpaxos, and the idempotent-retry-across-leader-crash test over
# real TCP + WALs.
overload-race:
	GOMAXPROCS=4 $(GO) test -race -count 1 ./internal/gateway
	GOMAXPROCS=4 $(GO) test -race -count 1 $(OVERLOAD_RACE)
	GOMAXPROCS=4 $(GO) test -race -count 1 $(OVERLOAD_TCP_RACE)

# Scaled-down open-loop goodput ablation (PR 9): Poisson offered load
# at 1-4x saturation with admission on vs off, on the latency-bound
# overload-lab substrate.
bench-overload-quick:
	$(GO) run ./cmd/benchpaxos -exp fig-overload -quick

# Geo-replication suite under the race detector at GOMAXPROCS=4
# (PR 10, DESIGN.md §16): Ω rank preemption and cost-composed ranks,
# the RTT placement feed, the read path's rule, regression and seam
# tests with nearest-replica reads end to end, the WAN profile timeout
# derivation, the wan3 linearizability bracket under region partition
# (in-process fabric), and the region-partition chaos scenario over
# real TCP. internal/core's near-read seams run on the simulator; the
# wall-clock near reads are internal/cluster's TestWANNearRead*.
wan-race:
	GOMAXPROCS=4 $(GO) test -race -count 1 $(WAN_RACE)

# Hot-path microbenchmarks: wire codec, both transports, the WAL write
# path (per-record vs group commit), and the KV store (put, put after a
# read-view pin, get through a view, snapshot), with allocs.
BENCH_PKGS = ./internal/wire ./internal/transport ./internal/storage ./internal/service
microbench:
	$(GO) test -run '^$$' -bench . -benchmem -count 1 $(BENCH_PKGS)

# Compare current microbenchmarks against the checked-in baseline.
# Fails when allocs/op regresses beyond 10%; run
#   make microbench > bench_baseline.txt
# to re-baseline after an intentional change.
benchstat:
	$(GO) test -run '^$$' -bench . -benchmem -count 1 $(BENCH_PKGS) > /tmp/bench_current.txt || (cat /tmp/bench_current.txt; exit 1)
	$(GO) run ./cmd/benchdiff bench_baseline.txt /tmp/bench_current.txt

clean:
	$(GO) clean ./...
