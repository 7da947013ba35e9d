GO ?= go

.PHONY: build test race vet check bench loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# check is the tier-1 gate: vet + build + tests under the race detector.
check:
	./scripts/check.sh

# bench runs the suite with -benchmem, writes a dated BENCH_<date>.json
# snapshot and diffs ns/op against the previous snapshot when one exists.
# Tune with BENCHTIME=2s or BENCH=<regexp>.
bench:
	./scripts/bench.sh

# loc prints the number ROADMAP tracks: non-test Go lines outside
# benchmark/. It should go down.
loc:
	@./scripts/loc.sh
