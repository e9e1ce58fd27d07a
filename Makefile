# Local dev and CI invoke the same targets (.github/workflows/ci.yml).

GO ?= go

# Packages with concurrent paths, exercised under the race detector.
RACE_PKGS := ./internal/api/... ./internal/server/... ./internal/query/... ./internal/kvstore/... ./internal/tier/... ./internal/retrieve/... ./internal/lru/... ./internal/ingest/... ./internal/erode/... ./internal/segment/... ./internal/codec/... ./internal/sched/... ./internal/sub/... ./internal/results/... ./internal/tenant/... ./internal/fault/... ./internal/repair/... ./internal/store/... ./internal/cluster/...

# The live-serving and storage core: covered with a minimum gate so the
# concurrency machinery (manifest commits, snapshot release, daemon
# lifecycle, tier demotion, shard recovery, HTTP admission control,
# standing-query push, the one fan-out primitive, retrieval and the
# segment layout it reads) cannot silently lose its tests.
COVER_PKGS := ./internal/api ./internal/server ./internal/ingest ./internal/erode ./internal/kvstore ./internal/tier ./internal/sub ./internal/results ./internal/tenant ./internal/fault ./internal/repair ./internal/store ./internal/cluster ./internal/sched ./internal/retrieve ./internal/segment
COVER_MIN := 80

# Fuzzing budget: 10s locally keeps the loop fast, nightly CI raises it.
FUZZTIME ?= 10s

.PHONY: build test loc race bench bench-ab lint fmt vet staticcheck vulncheck cover fuzz soak fault-soak all

all: build lint test

build:
	$(GO) build ./...

# Every end-to-end check is a Go test here: TestServeProcesses (cmd/vstore)
# runs `vstore api` and `vstore route` as real processes.
# On an AVX2 host the internal/vec kernels take NN's blur passes, the
# classifiers' column sums, the raw downscale, the encoder's deadzone delta,
# the compressor's long match compares, the delta reconstruction and the
# power-of-two requantiser, so the packages that call them are vetted and
# tested again under -tags purego, where every portable loop runs. The codec
# benchmarks run once, so that they cannot rot unseen.
PUREGO_PKGS := ./internal/vec ./internal/frame ./internal/codec ./internal/ops
test:
	$(GO) test ./...
	$(GO) vet -tags purego $(PUREGO_PKGS)
	$(GO) test -tags purego $(PUREGO_PKGS)
	$(GO) test -run '^$$' -bench 'EncodeGolden|DecodeGolden' -benchtime 1x ./internal/codec

# The ROADMAP's line metric and the same for tests, over this checkout's
# own source: a bench-ab base tree left under .bench_build/ is not counted.
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

# Interleaved A/B of one workload, BASE (a git ref, extracted with git archive
# under .bench_build/) against this working tree: PAIRS pairs of the
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
		printf "coverage (api+server+ingest+erode+kvstore+tier+sub+results+tenant+fault+repair+store+cluster+sched+retrieve+segment): %s%% (minimum %s%%)\n", $$3, min; \
		if ($$3 + 0 < min) { print "FAIL: coverage below minimum"; exit 1 } }'

# A short deterministic-input fuzz pass over configuration persistence
# (FromBytes must never panic, and accepted inputs must round-trip), over
# the two pixel kernels whose rewrite is hardest to read (any plane size and
# seed must give the bytes of the reference loop kept in the test file) and
# NN's cell means (any plane size, cell size and seed: the reference's
# bits, whichever of the column-sum kernel and its fallback a band takes),
# over the raw record parser, whose frames alias their input (any bytes must
# give the copying reference's error or frame, and never panic), over the
# raw anchor's frame directory (any bytes fail to parse or re-marshal to
# themselves, allocation bounded by the input), over the
# query chunk split (any validated range must be tiled exactly, whatever the
# chunk size — the loop that once overflowed), over the NDJSON line
# parser (any bytes must give json.Unmarshal's error or value), and over the
# results entry decoder that adoption trusts (no panic, allocation bounded
# by the input, and an accepted input re-encodes to itself), and over the
# encoded-segment container a peer node may send (any bytes must fail
# Unmarshal or decode to an error or frames, and never panic), over the
# codec's DEFLATE decoder (at any horizon compress/flate's reader fills, the
# same bytes) and compressor (at any level the codec uses, a stream both
# decoders read back, the same with any helpers) and its level-9 chain
# walk (at every position, the match of the old walk the test keeps), and
# over log replay (any bytes after valid records: no panic, allocation
# bounded by the input, every listed key readable or ErrCorrupt, and a
# reopen sees the same keys), and over the tenants key file (no panic; an
# accepted file maps each key to one uniquely named quota that a saved
# configuration can carry, and loads the same twice).
# Nightly CI runs this with FUZZTIME=5m. The three DEFLATE targets and the
# cell means take large inputs, which the fuzzer would minimise for up to a
# minute each; three seconds of that leave the budget for fuzzing.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzConfigRoundTrip -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzBoxScale -fuzztime $(FUZZTIME) ./internal/frame/
	$(GO) test -run '^$$' -fuzz FuzzBoxBlur3 -fuzztime $(FUZZTIME) ./internal/ops/
	$(GO) test -run '^$$' -fuzz FuzzCellMeans -fuzztime $(FUZZTIME) -fuzzminimizetime 3s ./internal/ops/
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalFrame -fuzztime $(FUZZTIME) ./internal/segment/
	$(GO) test -run '^$$' -fuzz FuzzRawMeta -fuzztime $(FUZZTIME) ./internal/segment/
	$(GO) test -run '^$$' -fuzz FuzzQuerySpans -fuzztime $(FUZZTIME) ./internal/api/
	$(GO) test -run '^$$' -fuzz FuzzQueryLine -fuzztime $(FUZZTIME) ./internal/api/
	$(GO) test -run '^$$' -fuzz FuzzDecodeEntry -fuzztime $(FUZZTIME) ./internal/results/
	$(GO) test -run '^$$' -fuzz FuzzUnmarshal -fuzztime $(FUZZTIME) ./internal/codec/
	$(GO) test -run '^$$' -fuzz FuzzInflate -fuzztime $(FUZZTIME) -fuzzminimizetime 3s ./internal/codec/
	$(GO) test -run '^$$' -fuzz FuzzDeflate -fuzztime $(FUZZTIME) -fuzzminimizetime 3s ./internal/codec/
	$(GO) test -run '^$$' -fuzz FuzzFindMatch -fuzztime $(FUZZTIME) -fuzzminimizetime 3s ./internal/codec/
	$(GO) test -run '^$$' -fuzz FuzzReplay -fuzztime $(FUZZTIME) ./internal/kvstore/
	$(GO) test -run '^$$' -fuzz FuzzLoadKeyFile -fuzztime $(FUZZTIME) ./internal/tenant/

# The subscription soak under the race detector: a live pipeline feeds
# segments for VSTORE_SOAK (default a few hundred ms; nightly CI runs 60s)
# while a subscriber must see every commit exactly once, in order.
SOAKTIME ?= 2s
soak:
	VSTORE_SOAK=$(SOAKTIME) $(GO) test -race -run TestSubscribeSoak -timeout 30m -v ./internal/sub/

# The fault-injection soak: every fault class (read flips, read errors,
# torn writes, sync failures, mixed) against the full
# ingest/demote/query/scrub workload under the race detector, seeded so
# failures reproduce. VSTORE_SOAK_SEEDS widens the matrix; nightly CI
# runs 4 seeds per scenario.
SOAK_SEEDS ?= 1
fault-soak:
	VSTORE_SOAK_SEEDS=$(SOAK_SEEDS) $(GO) test -race -run TestFaultSoak -timeout 30m -v ./internal/server/

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
