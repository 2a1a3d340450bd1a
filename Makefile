GO ?= go
BENCH_OUT ?= BENCH_10.json
BASELINE ?= bench_baseline.json
TOLERANCE ?= 0.25

.PHONY: build test vet race bench bench-baseline bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./... && (cd e2ebench && $(GO) vet ./...)

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the regression harness: measures the hot paths, writes
# $(BENCH_OUT), and fails if anything regressed past $(TOLERANCE) vs the
# committed $(BASELINE).
bench:
	$(GO) run ./cmd/bench -out $(BENCH_OUT) -baseline $(BASELINE) -tolerance $(TOLERANCE)

# bench-baseline re-records the committed baseline. Run on a quiet machine
# and commit the result when a deliberate performance change moves the
# numbers.
bench-baseline:
	$(GO) run ./cmd/bench -out $(BASELINE)

# bench-smoke runs every testing.B benchmark once — a compile-and-run
# check, not a measurement.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
