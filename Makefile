# Local dev and CI invoke the same targets (.github/workflows/ci.yml).

GO ?= go

# Packages with concurrent paths, exercised under the race detector.
RACE_PKGS := ./internal/api/... ./internal/server/... ./internal/query/... ./internal/kvstore/... ./internal/tier/... ./internal/retrieve/... ./internal/lru/... ./internal/ingest/... ./internal/erode/... ./internal/segment/... ./internal/codec/... ./internal/sched/... ./internal/sub/... ./internal/results/... ./internal/tenant/... ./internal/fault/... ./internal/repair/... ./internal/store/... ./internal/cluster/...

# The live-serving and storage core: covered with a minimum gate so the
# concurrency machinery (manifest commits, snapshot release, daemon
# lifecycle, tier demotion, shard recovery, HTTP admission control,
# standing-query push) cannot silently lose its tests.
COVER_PKGS := ./internal/api ./internal/server ./internal/ingest ./internal/erode ./internal/kvstore ./internal/tier ./internal/sub ./internal/results ./internal/tenant ./internal/fault ./internal/repair ./internal/store ./internal/cluster
COVER_MIN := 80

# Fuzzing budget: 10s locally keeps the loop fast, nightly CI raises it.
FUZZTIME ?= 10s

.PHONY: build test examples loc race bench bench-ab lint fmt vet staticcheck vulncheck cover fuzz soak load-smoke scrub-smoke fault-smoke fault-soak cluster-smoke all

all: build lint test

build:
	$(GO) build ./...

# On an AVX2 host the vector blur kernel takes every row wide enough for it,
# so the portable SWAR loop is vetted and tested again under -tags purego.
test:
	$(GO) test ./...
	$(GO) vet -tags purego ./internal/ops
	$(GO) test -tags purego ./internal/ops

# The walkthroughs under examples/ are run, not just compiled: each is a
# self-checking program over a throwaway store (a few seconds apiece), and
# a non-zero exit fails the target. What a CLI verb already shows has no
# example (`vstore configure`/`ingest`/`query`, `vstore serve`), and the
# erosion walkthrough is `vbench table4`/`fig13`.
EXAMPLES := httpserve subscribe multitenant
examples:
	@set -e; for e in $(EXAMPLES); do \
		echo "== examples/$$e"; \
		$(GO) run ./examples/$$e; \
	done

# The ROADMAP's line metric and the same for tests, over this checkout's
# own source: a bench-ab worktree left under .bench_build/ is not counted.
# Go assembly (*.s) counts as non-test code. Prints only: nothing reads the
# numbers back.
loc:
	@printf 'non-test Go lines: '; find . -path ./.bench_build -prune -o \( -name '*.go' ! -name '*_test.go' -o -name '*.s' \) -print | xargs cat | wc -l
	@printf 'test Go lines:     '; find . -path ./.bench_build -prune -o -name '*_test.go' -print | xargs cat | wc -l

# -short skips wall-clock timing assertions: the race detector's overhead
# distorts them, and its job is catching data races, not measuring speed.
# The generous -timeout absorbs the ~10x race slowdown on small hosts.
race:
	$(GO) test -race -short -timeout 25m $(RACE_PKGS)

# The repo's one benchmark (BENCHMARK.json, benchmark/README.md): four
# checked workloads, then the traced per-layer ladder. `go test ./benchmark`
# (part of `make test`) is its smoke run.
bench:
	bash benchmark/run.sh

# Interleaved A/B of one workload, BASE (a git ref, checked out into a
# worktree under .bench_build/) against this working tree: PAIRS pairs of the
# driver's own 15-second run, the side that goes first alternating, then per
# metric both sides' quartiles, the pairs won and whether that is a gain. The
# only way to compare speeds on a host that drifts (benchmark/README.md);
# ten pairs take about ten minutes, so nothing runs it per PR.
BASE ?= HEAD
WORKLOAD ?= scan_cold
PAIRS ?= 10
bench-ab:
	bash scripts/bench-ab.sh $(BASE) $(WORKLOAD) $(PAIRS)

# Every listed package must actually carry tests: a package silently
# contributing zero statements would hollow out the aggregate gate.
cover:
	@for p in $(COVER_PKGS); do \
		if ! ls $$p/*_test.go >/dev/null 2>&1; then \
			echo "FAIL: coverage-gated package $$p has no test files"; exit 1; \
		fi; \
	done
	$(GO) test -coverprofile=cover.out $(COVER_PKGS)
	@$(GO) tool cover -func=cover.out | awk -v min=$(COVER_MIN) '/^total:/ { \
		sub(/%/, "", $$3); \
		printf "coverage (api+server+ingest+erode+kvstore+tier+sub+results+tenant+fault+repair+store+cluster): %s%% (minimum %s%%)\n", $$3, min; \
		if ($$3 + 0 < min) { print "FAIL: coverage below minimum"; exit 1 } }'

# A short deterministic-input fuzz pass over configuration persistence
# (FromBytes must never panic, and accepted inputs must round-trip), over
# the two pixel kernels whose rewrite is hardest to read (any plane size and
# seed must give the bytes of the reference loop kept in the test file) and
# over the raw record parser, whose frames alias their input (any bytes must
# give the copying reference's error or frame, and never panic), over the
# query chunk split (any validated range must be tiled exactly, whatever the
# chunk size — the loop that once overflowed), over the NDJSON line
# parser (any bytes must give json.Unmarshal's error or value), and over the
# results entry decoder that adoption trusts (no panic, allocation bounded
# by the input, and an accepted input re-encodes to itself), and over the
# encoded-segment container a peer node may send (any bytes must fail
# Unmarshal or decode to an error or frames, and never panic).
# Nightly CI runs this with FUZZTIME=5m.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzConfigRoundTrip -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzBoxScale -fuzztime $(FUZZTIME) ./internal/frame/
	$(GO) test -run '^$$' -fuzz FuzzBoxBlur3 -fuzztime $(FUZZTIME) ./internal/ops/
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalFrame -fuzztime $(FUZZTIME) ./internal/segment/
	$(GO) test -run '^$$' -fuzz FuzzQuerySpans -fuzztime $(FUZZTIME) ./internal/api/
	$(GO) test -run '^$$' -fuzz FuzzQueryLine -fuzztime $(FUZZTIME) ./internal/api/
	$(GO) test -run '^$$' -fuzz FuzzDecodeEntry -fuzztime $(FUZZTIME) ./internal/results/
	$(GO) test -run '^$$' -fuzz FuzzUnmarshal -fuzztime $(FUZZTIME) ./internal/codec/

# The subscription soak under the race detector: a live pipeline feeds
# segments for VSTORE_SOAK (default a few hundred ms; nightly CI runs 60s)
# while a subscriber must see every commit exactly once, in order.
SOAKTIME ?= 2s
soak:
	VSTORE_SOAK=$(SOAKTIME) $(GO) test -race -run TestSubscribeSoak -timeout 30m -v ./internal/sub/

# End-to-end over the wire: a real `vstore api` server (own process, fresh
# store, small profiling clip, a two-tenant key file) under two vload
# phases. Phase 1 is the original keyless smoke: a 5-second mixed
# query/ingest load from 8 concurrent clients, while a standing
# subscription held for the whole run must see every committed segment
# exactly once, in commit order, with zero drops — proving keyless clients
# still work unchanged with tenants configured. Phase 2 is the tenant-skew
# scenario this PR exists for: the same 8 clients hammer the server as the
# hot tenant while a paced cold-tenant prober asks for little; the run
# fails if the cold prober's p99 latency exceeds the bound (hot-tenant
# starvation — what the weighted-fair gate prevents). The server picks its
# own port (-listen :0) and vload reads it from the startup line, so
# parallel CI jobs cannot collide. vload exits non-zero on any hard error
# (429s are admission control, not errors), and the server must drain
# cleanly on SIGTERM.
load-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$srvpid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/vstore" ./cmd/vstore; \
	$(GO) build -o "$$tmp/vload" ./cmd/vload; \
	"$$tmp/vstore" configure -db "$$tmp/db" -clip 120 >/dev/null; \
	printf 'k-hot hot weight=1\nk-cold cold weight=1\n' > "$$tmp/tenants"; \
	"$$tmp/vstore" api -db "$$tmp/db" -listen 127.0.0.1:0 -max-inflight 4 -max-queue 8 -tenants "$$tmp/tenants" > "$$tmp/server.log" & \
	srvpid=$$!; \
	addr=""; \
	for i in $$(seq 1 50); do \
		addr=$$(sed -n 's/^vstore api listening on \([^ ]*\).*/\1/p' "$$tmp/server.log"); \
		[ -n "$$addr" ] && break; \
		sleep 0.2; \
	done; \
	if [ -z "$$addr" ]; then \
		echo "FAIL: server never reported its listen address"; \
		cat "$$tmp/server.log"; exit 1; \
	fi; \
	"$$tmp/vload" -addr "http://$$addr" -clients 8 -duration 5s -seed-segments 2 -subscribe; \
	echo "load-smoke: tenant-skew phase (hot load vs paced cold prober)"; \
	"$$tmp/vload" -addr "http://$$addr" -clients 8 -duration 5s -seed-segments 2 \
		-hot-key k-hot -cold-keys k-cold -cold-interval 150ms -cold-p99-max 5s; \
	kill -TERM $$srvpid; \
	wait $$srvpid

# Self-healing end to end on a real store: configure, ingest, flip one
# bit in a committed replica (`vstore damage`), and require one `vstore
# scrub` pass to find and re-derive it — the second pass must scan clean,
# and `vstore query` must print the same detections line as before the
# damage.
scrub-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/vstore" ./cmd/vstore; \
	"$$tmp/vstore" configure -db "$$tmp/db" -clip 120 >/dev/null; \
	"$$tmp/vstore" ingest -db "$$tmp/db" -scene jackson -segments 2 >/dev/null; \
	"$$tmp/vstore" query -db "$$tmp/db" -scene jackson -to 2 | grep ' detections' > "$$tmp/before"; \
	"$$tmp/vstore" damage -db "$$tmp/db" -stream jackson -segment 1; \
	"$$tmp/vstore" scrub -db "$$tmp/db"; \
	"$$tmp/vstore" scrub -db "$$tmp/db" | grep -q '0 corrupt, 0 lost' || \
		{ echo "FAIL: store not clean after repair"; exit 1; }; \
	"$$tmp/vstore" query -db "$$tmp/db" -scene jackson -to 2 | grep ' detections' > "$$tmp/after"; \
	cmp -s "$$tmp/before" "$$tmp/after" || \
		{ echo "FAIL: healed store answers differently"; cat "$$tmp/before" "$$tmp/after"; exit 1; }; \
	cat "$$tmp/after"

# Availability through an induced storage outage, over the wire: the api
# server runs with read bit flips injected on one derived replica
# family's fast-tier reads (VSTORE_FAULTS) — its fallback ancestors stay
# readable, the condition under which self-healing guarantees masking —
# while vload's fault-probe scenario drives queries-only load. Any query
# error fails the run, and so does a run whose corruption counters never
# moved (a probe that proved nothing).
fault-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$srvpid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/vstore" ./cmd/vstore; \
	$(GO) build -o "$$tmp/vload" ./cmd/vload; \
	"$$tmp/vstore" configure -db "$$tmp/db" -clip 120 >/dev/null; \
	"$$tmp/vstore" ingest -db "$$tmp/db" -scene jackson -segments 2 >/dev/null; \
	VSTORE_FAULTS='read@fast+best-540p-1.1-100_RAW=flip:0.1' VSTORE_FAULT_SEED=7 \
		"$$tmp/vstore" api -db "$$tmp/db" -listen 127.0.0.1:0 > "$$tmp/server.log" 2>&1 & \
	srvpid=$$!; \
	addr=""; \
	for i in $$(seq 1 50); do \
		addr=$$(sed -n 's/^vstore api listening on \([^ ]*\).*/\1/p' "$$tmp/server.log"); \
		[ -n "$$addr" ] && break; \
		sleep 0.2; \
	done; \
	if [ -z "$$addr" ]; then \
		echo "FAIL: server never reported its listen address"; \
		cat "$$tmp/server.log"; exit 1; \
	fi; \
	"$$tmp/vload" -addr "http://$$addr" -fault-probe -clients 4 -duration 5s \
		-stream jackson -seed-segments 2; \
	kill -TERM $$srvpid; \
	wait $$srvpid

# The fault-injection soak: every fault class (read flips, read errors,
# torn writes, sync failures, mixed) against the full
# ingest/demote/query/scrub workload under the race detector, seeded so
# failures reproduce. VSTORE_SOAK_SEEDS widens the matrix; nightly CI
# runs 4 seeds per scenario.
SOAK_SEEDS ?= 1
fault-soak:
	VSTORE_SOAK_SEEDS=$(SOAK_SEEDS) $(GO) test -race -run TestFaultSoak -timeout 30m -v ./internal/server/

# Cluster mode end to end, with real processes: three `vstore api` nodes
# behind a real `vstore route` router with replication factor 2. Two
# streams are seeded through the router (consistent hashing splits their
# owners) and each takes vload's synchronized burst-wave scenario. Then
# the first stream's owner — read from the router's own /v1/cluster
# placement surface — is SIGKILLed, and a queries-only wave against both
# streams must still answer with zero hard errors (reads fail over to the
# replica follower), with the router's degraded-route counter moving to
# prove the failover path, not luck, served them. Every process picks its
# own port, so parallel CI jobs cannot collide.
cluster-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$n1 $$n2 $$n3 $$rpid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/vstore" ./cmd/vstore; \
	$(GO) build -o "$$tmp/vload" ./cmd/vload; \
	for i in 1 2 3; do \
		"$$tmp/vstore" configure -db "$$tmp/db$$i" -clip 120 >/dev/null; \
		"$$tmp/vstore" api -db "$$tmp/db$$i" -listen 127.0.0.1:0 > "$$tmp/node$$i.log" 2>&1 & \
		eval "n$$i=$$!"; \
	done; \
	for i in 1 2 3; do \
		a=""; \
		for try in $$(seq 1 50); do \
			a=$$(sed -n 's/^vstore api listening on \([^ ]*\).*/\1/p' "$$tmp/node$$i.log"); \
			[ -n "$$a" ] && break; \
			sleep 0.2; \
		done; \
		if [ -z "$$a" ]; then \
			echo "FAIL: node $$i never reported its listen address"; \
			cat "$$tmp/node$$i.log"; exit 1; \
		fi; \
		eval "a$$i=$$a"; \
	done; \
	"$$tmp/vstore" route -nodes "n1=http://$$a1,n2=http://$$a2,n3=http://$$a3" \
		-replicas 2 -listen 127.0.0.1:0 > "$$tmp/router.log" 2>&1 & \
	rpid=$$!; \
	raddr=""; \
	for try in $$(seq 1 50); do \
		raddr=$$(sed -n 's/^vstore router listening on \([^ ]*\).*/\1/p' "$$tmp/router.log"); \
		[ -n "$$raddr" ] && break; \
		sleep 0.2; \
	done; \
	if [ -z "$$raddr" ]; then \
		echo "FAIL: router never reported its listen address"; \
		cat "$$tmp/router.log"; exit 1; \
	fi; \
	"$$tmp/vload" -addr "http://$$raddr" -cluster -stream cam-a -seed-segments 2 -clients 6 -waves 3; \
	"$$tmp/vload" -addr "http://$$raddr" -cluster -stream cam-b -seed-segments 2 -clients 6 -waves 3; \
	reps=0; \
	for try in $$(seq 1 100); do \
		reps=$$(curl -sf "http://$$raddr/metrics" | awk '/^vstore_router_replications_total/ { print $$2 + 0 }'); \
		[ "$$reps" -ge 2 ] && break; \
		sleep 0.2; \
	done; \
	if [ "$$reps" -lt 2 ]; then \
		echo "FAIL: follower replication never completed (replications=$$reps)"; \
		curl -sf "http://$$raddr/metrics" | grep '^vstore_router' || true; exit 1; \
	fi; \
	victim=$$(curl -sf "http://$$raddr/v1/cluster" | sed -n 's/.*"cam-a":\["\([^"]*\)".*/\1/p'); \
	if [ -z "$$victim" ]; then \
		echo "FAIL: router reports no placement for cam-a"; \
		curl -sf "http://$$raddr/v1/cluster"; exit 1; \
	fi; \
	echo "cluster-smoke: killing cam-a's owner $$victim"; \
	vpid=$$(eval echo \$$n$${victim#n}); \
	kill -9 $$vpid; \
	"$$tmp/vload" -addr "http://$$raddr" -cluster -stream cam-a -seed-segments 0 -clients 4 -waves 1; \
	"$$tmp/vload" -addr "http://$$raddr" -cluster -stream cam-b -seed-segments 0 -clients 4 -waves 1; \
	curl -sf "http://$$raddr/metrics" | awk '/^vstore_router_degraded_routes_total/ { if ($$2 + 0 > 0) ok = 1 } END { exit ok ? 0 : 1 }' || \
		{ echo "FAIL: a node died but vstore_router_degraded_routes_total never moved"; exit 1; }; \
	kill -TERM $$rpid; \
	wait $$rpid

lint: vet fmt staticcheck vulncheck

vet:
	$(GO) vet ./...

# Static analysis beyond vet. The binaries are not vendored and must not
# be network-installed from this Makefile: CI installs pinned versions
# (see .github/workflows/ci.yml) before invoking these targets, and a
# machine without them skips with a notice instead of failing.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs the pinned version)"; \
	fi

vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs the pinned version)"; \
	fi

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
