GO ?= go

.PHONY: check fmt-check vet build test race transfer-order release-order standby-order fuzz-smoke crash-smoke explore cover bench bench-compare bench-fanout bench-load bench-tree bench-home bench-store

# check is the full CI gate: formatting, static analysis, build, the
# complete test suite, the race detector over the concurrency-heavy
# packages, short fuzz passes over the wire and WAL-record decoders, and
# the kill -9 crash-recovery smoke over the durable store.
check: fmt-check vet build test race transfer-order release-order standby-order fuzz-smoke crash-smoke

# fmt-check fails if any Go file is not gofmt-clean.
fmt-check:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Everything from the mnet sender to the fault-schedule explorer runs many
# goroutines over shared state; keep the whole module race-clean. -short
# skips the long stress and explorer workloads, which the plain test target
# already covers without the race detector's slowdown.
race:
	$(GO) test -race -short ./...

# transfer-order repeats the tests that pin the NEEDNEWVERSION path by
# order — directive with the grant, recovery after it, carriage off the
# daemon dispatcher, counters read after the ack — twenty times each. They
# are sub-second, and an ordering regression here shows as a rare failure
# long before it shows in benchmark/.
transfer-order:
	$(GO) test ./internal/core -count=20 -run 'TestTransferOvertakesGrantOnSlowHomeLink$$|TestUndeliverableGrantDiscardsDirective$$|TestRevisedGrantFollowsOriginal$$|TestDeadTransferDestDoesNotStallDaemon$$|TestDirectiveSourceFixedAtGrant$$|TestDeltaFallbackEvictedLog$$'

# release-order does the same for the release path: Unlock leaves the
# home's ack to the release carriage under placement, the same lock's next
# acquire waits for it on every rung of the ladder, a forwarded or lost
# release is counted, Close waits the carriage out, the fixed home blocks,
# and a version number orphaned by a lost release is never published twice.
release-order:
	$(GO) test ./internal/core -count=20 -run 'TestUnlockLeavesHomeAckToCarriage$$|TestReacquireWaitsOutReleaseLadder$$|TestUndeliveredReleaseIsCounted$$|TestCloseWaitsOutReleaseCarriage$$|TestForwardedReleaseRidesCarriage$$|TestDropReleaseRecoversPushedVersion$$|TestLostReleaseVersionNotReused$$'

# standby-order does the same for the standby a home streams to: the chooser
# picks the first ring member in ID-successor order inside the band of the
# fastest probe answer (the successor when nothing answers) and closes at
# the first answer plus the band; on a two-region WAN every standby is
# in-region and still promotes when its home dies; and a release sent while
# the standby has not promoted is counted lost, not acked and dropped.
standby-order:
	$(GO) test ./internal/core -count=20 -run 'TestChooseStandby$$|TestStandbyStaysInRegion$$|TestReleaseBeforePromotionIsCounted$$'

# fuzz-smoke runs the wire-decoder fuzzer briefly on top of its checked-in
# corpus (testdata/fuzz). Long open-ended fuzzing is a background job, not
# a CI gate; five seconds is enough to catch a decoder regression against
# everything the corpus has already discovered.
fuzz-smoke:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzUnmarshal -fuzztime 5s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzWALRecord -fuzztime 5s

# crash-smoke SIGKILLs a child process running a store-backed daemon
# mid-load and asserts the reopened store recovers a clean, committed
# prefix of what the child persisted.
crash-smoke:
	$(GO) test ./internal/store -run 'TestCrashRestartSmoke$$' -count=1 -v

# explore runs a time-budgeted coverage-guided fault-exploration session
# (default 60s; override with EXPLORE_BUDGET). It honors MOCHA_TEST_SEED
# for the workload base seed and prints the corpus signature plus replay
# commands for anything the monitor catches. -explore also un-quarantines
# TestExploreReplayDeterminism's same-seed comparison, which a known
# protocol race (DESIGN.md §4, ROADMAP item 1) keeps out of `make test`.
EXPLORE_BUDGET ?= 60s
explore:
	$(GO) test ./internal/check -run 'TestExploreGuided$$|TestExploreReplayDeterminism$$' -count=1 -v -explore $(EXPLORE_BUDGET)

# cover enforces statement-coverage floors on the packages that implement
# the protocol (core) and its encoding (wire). The floors are set a few
# points under current coverage so genuinely new untested code fails the
# gate without every refactor tripping it.
cover:
	@set -e; \
	for spec in "./internal/core 80" "./internal/wire 90" "./internal/check 85" "./internal/obs 85" "./internal/mnet 80" "./internal/netsim 80" "./internal/overlay 80" "./internal/placement 80" "./internal/transport 70" "./internal/store 80"; do \
		pkg="$${spec% *}"; floor="$${spec#* }"; \
		line="$$($(GO) test -cover $$pkg | tail -1)"; \
		echo "$$line"; \
		pct="$$(echo "$$line" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p')"; \
		if [ -z "$$pct" ]; then echo "no coverage reported for $$pkg"; exit 1; fi; \
		if [ "$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN{print (p>=f)?1:0}')" != 1 ]; then \
			echo "$$pkg coverage $$pct% is below the $$floor% floor"; exit 1; \
		fi; \
	done

# bench runs the repository's one end-to-end and per-layer benchmark
# (benchmark/, declared by BENCHMARK.json): every workload, untraced and
# traced, about three minutes, results and provenance in
# .bench_build/run.json. bench-compare judges two such files by
# BENCHMARK.json's directions and bounds and exits 1 on a regression:
#   make bench-compare OLD=before.json NEW=after.json
bench:
	bash benchmark/run.sh -out .bench_build/run.json

bench-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-compare OLD=a.json NEW=b.json"; exit 2; }
	bash benchmark/run.sh -compare $(OLD) $(NEW)

bench-fanout:
	$(GO) run ./cmd/benchmocha -exp ablate-fanout -json

# bench-load drives the open-loop harness at 100 sites / 10k locks, once
# plain and once with the online monitor in the event stream, with the
# history checker on, and fails if a leg records nothing. Emits
# BENCH_load.json.
bench-load:
	$(GO) run ./cmd/benchmocha -exp load -json

# bench-tree compares flat O(sharers) release dissemination against the
# locality-aware relay tree at 200 sites over an 8-region simulated WAN,
# with the history checker on in both legs. Emits BENCH_tree.json.
bench-tree:
	$(GO) run ./cmd/benchmocha -exp ablate-tree -json

# bench-home kills a lock-home site under both placement strategies: the
# paper's fixed home strands its whole lock namespace, while the
# consistent-hash ring with standby promotion leaves every lock
# acquirable. The history checker runs on both legs. Emits
# BENCH_home.json.
bench-home:
	$(GO) run ./cmd/benchmocha -exp ablate-home -json

# bench-store kills and restarts a worker site under both replica-store
# backends: the paper's in-memory baseline loses everything and refetches
# every lock, while the durable store replays its WAL and re-joins at the
# persisted versions with zero transfers. A third leg runs the durable
# store under a memory cap below the working set (eviction + refault).
# The online monitor and history checker run on the restart legs. Emits
# BENCH_store.json.
bench-store:
	$(GO) run ./cmd/benchmocha -exp ablate-store -json
