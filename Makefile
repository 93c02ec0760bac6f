# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race bench check lint fuzz loadsmoke coldsmoke scalesmoke experiments figures cover clean

all: build test

# The single verification entrypoint: vet, build, and race-enabled tests.
# bench/ is its own module that imports internal APIs, so it is vetted
# and tested separately; otherwise a refactor could break its build with
# no check failing.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Static analysis: vet always; staticcheck when installed (CI installs it).
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Fuzz every parser/decoder for a short burst each: the cube codec
# through the .wcc reader, the wikitext infobox parser, the counter-anomaly
# detector, the streaming JSONL event format (and its line decoder's fast
# path against encoding/json), and the epoch store's log
# and snapshot decoders (crash-recovery surfaces: they parse whatever a
# torn write left on disk; the snapshot decoder runs the same cube codec).
# Each new interesting input is minimized for at most 1s: with Go's
# default of 60s, FuzzSnapshotDecode spends a whole burst minimizing one
# input derived from its large seed snapshot, at 0 execs/s.
FUZZTIME ?= 10s
FUZZFLAGS = -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' $(FUZZFLAGS) ./internal/changecube
	$(GO) test -run '^$$' -fuzz '^FuzzParseInfoboxes$$' $(FUZZFLAGS) ./internal/wikitext
	$(GO) test -run '^$$' -fuzz '^FuzzDetectCounterAnomalies$$' $(FUZZFLAGS) ./internal/values
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSONL$$' $(FUZZFLAGS) ./internal/ingest
	$(GO) test -run '^$$' -fuzz '^FuzzParseEventLine$$' $(FUZZFLAGS) ./internal/ingest
	$(GO) test -run '^$$' -fuzz '^FuzzEpochLogDecode$$' $(FUZZFLAGS) ./internal/epochstore
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotDecode$$' $(FUZZFLAGS) ./internal/epochstore

# HTTP load smoke: boot a live staleserve on the simulated feed, drive
# it with cmd/staleload in both loop modes, assert healthy throughput,
# and leave the latency report in BENCH_HTTP.json (see scripts/loadsmoke.sh).
loadsmoke:
	sh scripts/loadsmoke.sh

# Cold-start smoke: run a live server with -store, kill it after the
# first persisted epoch, restart, and assert instant readiness from the
# store plus exact feed resume (see scripts/coldstartsmoke.sh).
coldsmoke:
	sh scripts/coldstartsmoke.sh

# Scale smoke: stream a generator-backed corpus through the live path
# and gate incremental-retrain speedup and compact-layout bytes-per-
# change (see scripts/scalesmoke.sh; SCALE=8 reproduces BENCH_SCALE.json).
scalesmoke:
	sh scripts/scalesmoke.sh

# Regenerate every table and figure of the paper on the default corpus.
experiments:
	$(GO) run ./cmd/experiments -scale default

figures:
	mkdir -p out
	$(GO) run ./cmd/experiments -scale default -exp figure3 -svgdir out > out/figure3.txt
	$(GO) run ./cmd/experiments -scale default -exp figure4 -svgdir out > out/figure4.txt

cover:
	$(GO) test -cover ./internal/...

clean:
	rm -rf out
