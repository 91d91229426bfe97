GO ?= go

.PHONY: all tier1 fmt race snapshot-sites clock-sites read-sites stats-sites inbox-sites coverage-sites doc-refs fuzz-smoke chaos benchmark benchmark-test paper bench-overload-quick microbench benchstat clean

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

# Race tier: vet + the full test suite under the race detector at a
# widened scheduler, the one race gate. Every suite that needs the race
# detector — chaos, transport, the read pool, durability,
# reconfiguration, the gateway, the WAN tests — is in ./..., so no test
# is selected by name and none can drop out of the gate by a rename.
race:
	$(GO) vet ./...
	GOMAXPROCS=4 $(GO) test -race -count 1 ./...

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
# transport, storage, gateway, client and the public API (the root
# package). This runs tier-1 with coverage over those seven packages and
# fails listing each function `go tool cover -func` reports at 0.0% that
# testdata/coverage_allow.txt does not name. An allowlist line is
# "<file>:<function> <reason>"; a line without a reason fails.
COVERAGE_PKGS = gridrep/internal/core,gridrep/internal/wire,gridrep/internal/transport,gridrep/internal/storage,gridrep/internal/gateway,gridrep/internal/client,gridrep
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
	echo "coverage-sites: tier-1 reaches every function in core, wire, transport, storage, gateway, client and gridrep"

# Docs cite what exists: every Test*, Fuzz* or Benchmark* name and every
# `make <target>` (in backticks or opening a code line) that README.md,
# DESIGN.md or EXPERIMENTS.md cites must still be a test function in the
# repository or a target here. This fails listing each stale citation
# that testdata/doc_refs_allow.txt does not name. An allowlist line is
# "<name> <reason>" — a name cited as deleted on purpose; a line without
# a reason fails.
DOC_REFS = README.md DESIGN.md EXPERIMENTS.md
DOC_REFS_ALLOW = testdata/doc_refs_allow.txt
doc-refs:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	grep -vE '^(#|$$)' $(DOC_REFS_ALLOW) > $$tmp/allow || true; \
	bad=$$(awk 'NF < 2' $$tmp/allow); \
	if [ -n "$$bad" ]; then echo "doc-refs: allowlist lines without a reason:"; echo "$$bad"; exit 1; fi; \
	awk '{ print $$1 }' $$tmp/allow > $$tmp/keys; \
	git ls-files --cached --others --exclude-standard '*_test.go' | xargs grep -ohE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]+' | \
		sed 's/^func //' > $$tmp/have; \
	grep -oE '^[a-z][a-z0-9-]*:' Makefile | sed 's/:$$//; s/^/make /' >> $$tmp/have; \
	stale=$$( { grep -ohE '\b(Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*' $(DOC_REFS); \
		grep -ohE '(`|^[[:space:]]*)make [a-z][a-z0-9-]*' $(DOC_REFS) | sed -E 's/^[`[:space:]]*//'; } | \
		sort -u | grep -vxF -f $$tmp/have | grep -vxF -f $$tmp/keys || true); \
	if [ -n "$$stale" ]; then echo "doc-refs: $(DOC_REFS) cite names that do not exist:"; echo "$$stale"; exit 1; fi; \
	echo "doc-refs: every test name and make target $(DOC_REFS) cite exists"

# Fuzz smoke: each decoder fuzz target (and WAL replay) explores FUZZTIME beyond its seed
# corpus (testdata/fuzz/, which tier-1 already replays). A failure
# writes the crashing input under that testdata directory.
FUZZTIME = 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzServiceOp$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzServiceRestore$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzServiceApplyDelta$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEnvelope$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzTCPReadLoop$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/storage

# Just the socket-level chaos suite (transport + chaos), race-enabled.
chaos:
	$(GO) test -race ./internal/transport ./internal/chaos

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

# Scaled-down open-loop goodput ablation (PR 9): Poisson offered load
# at 1-4x saturation with admission on vs off, on the latency-bound
# overload-lab substrate.
bench-overload-quick:
	$(GO) run ./cmd/benchpaxos -exp fig-overload -quick

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
