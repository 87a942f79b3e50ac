# Tier-1 gate (see ROADMAP.md): formatting, vet, build, race-enabled tests.
# `make ci` is what must stay green on every PR.

GOFILES := $(shell find . -name '*.go' -not -path './.*')

.PHONY: ci fmt vet build test bench bench-smoke bench-test fuzz lint cover repl-smoke txn-smoke

ci: fmt vet build lint test cover bench-smoke bench-test fuzz repl-smoke txn-smoke

fmt:
	@out=$$(gofmt -l $(GOFILES)); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	go vet ./...

build:
	go build ./...

test:
	go test -race ./...

# Static analysis beyond go vet (DESIGN.md §9, §14). repovet runs the full
# internal/vet suite (noprint, errdrop, lockheld, atomicmix, testleak) over
# the repository — zero unsuppressed findings allowed — archiving the JSON
# report under /tmp/gis-lint and printing per-check counts as
# gis_lint_findings_total{check} series. gislint checks the rule-set
# corpora: the Figure 6 workload and the clean/disjoint testdata files must
# lint clean, while the seeded ambiguous/shadowed/cycle/when-shadowed/dead
# files must keep failing (so the checks cannot silently rot).
lint:
	@mkdir -p /tmp/gis-lint
	go run ./cmd/repovet -out /tmp/gis-lint/vet.json -counts .
	go run ./cmd/gislint -figure6 cmd/gislint/testdata/clean.cust cmd/gislint/testdata/when_disjoint.cust
	@if go run ./cmd/gislint cmd/gislint/testdata/ambiguous.cust >/dev/null 2>&1; then \
		echo "gislint missed the seeded ambiguity"; exit 1; fi
	@if go run ./cmd/gislint cmd/gislint/testdata/shadowed.cust >/dev/null 2>&1; then \
		echo "gislint missed the seeded shadowed rule"; exit 1; fi
	@if go run ./cmd/gislint cmd/gislint/testdata/when_shadowed.cust >/dev/null 2>&1; then \
		echo "gislint missed the seeded condition-implied shadowing"; exit 1; fi
	@if go run ./cmd/gislint cmd/gislint/testdata/dead.rules.json >/dev/null 2>&1; then \
		echo "gislint missed the seeded dead rules"; exit 1; fi
	@if go run ./cmd/gislint cmd/gislint/testdata/cycle.rules.json >/dev/null 2>&1; then \
		echo "gislint missed the seeded triggering cycle"; exit 1; fi

# Short fuzz smoke over the torn-input decoders: the wire-protocol frame
# reader and the WAL record scanner. Deeper runs raise -fuzztime, e.g.
# `go test -fuzz=FuzzWALDecode -fuzztime=5m ./internal/storage`.
fuzz:
	go test -run='^$$' -fuzz=FuzzReadMessage -fuzztime=10s ./internal/proto
	go test -run='^$$' -fuzz=FuzzWALDecode -fuzztime=10s ./internal/storage

# Per-package coverage floor over the packages that guard data: storage
# (WAL, crash matrix), the database, the rule engine, the wire protocol —
# and the analysis suite that vets them (internal/vet).
COVER_FLOOR := 70
COVER_PKGS  := internal/storage internal/geodb internal/active internal/proto internal/obs internal/repl internal/vet

cover:
	@mkdir -p /tmp/gis-cover
	@fail=0; for pkg in $(COVER_PKGS); do \
		prof=/tmp/gis-cover/$$(basename $$pkg).out; \
		go test -count=1 -coverprofile=$$prof ./$$pkg >/dev/null || exit 1; \
		pct=$$(go tool cover -func=$$prof | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
		printf 'coverage %-20s %6s%% (floor $(COVER_FLOOR)%%)\n' $$pkg $$pct; \
		if ! awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN {exit !(p+0 >= f)}'; then \
			echo "coverage below floor for $$pkg"; fail=1; fi; \
	done; exit $$fail

bench:
	go test -run xxx -bench . -benchmem .

# One iteration of every benchmark: keeps the bench series compiling and
# running (not measuring) on every PR.
bench-smoke:
	go test -run xxx -bench . -benchtime 1x .

# The end-to-end interaction benchmark (bench/README.md) is its own module,
# so the root `./...` never reaches it: vet it and run its smoke and unit
# tests here. The measured run is `bash bench/run.sh`.
bench-test:
	cd bench && go vet . && go test -race -count=1 .

# Replication fault smoke (DESIGN.md §13): the ship stream under injected
# partitions/corruption, and the stalled-replica failover in the topology
# client. `make test` runs the full matrices; this re-runs just the fault
# paths so a CI log names them explicitly.
repl-smoke:
	go test -race -count=1 -run 'TestShipStreamFaultMatrix|TestHungPrimaryCannotWedgeApply' ./internal/repl
	go test -race -count=1 -run 'TestTopologyStalledReplicaPoisonedAndEvicted' ./internal/client

# Group-commit flake sweep (DESIGN.md §15): the concurrent-committer
# linearizability oracle + crash matrix, the transaction tests and the
# replica consistency oracles, each run five times under -race so an
# interleaving-dependent failure cannot hide behind one lucky run.
txn-smoke:
	go test -race -count=5 -run 'TestWALGroupCommit|TestTxn' ./internal/storage ./internal/geodb
	go test -race -count=5 -run 'TestShipFramesNeverSplitTxn|TestReplicaPrefixConsistencyConcurrentWriters' ./internal/repl
