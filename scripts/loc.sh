#!/bin/sh
# loc.sh prints the number ROADMAP tracks — non-test Go lines outside
# benchmark/ — with one fixed command, so it is never hand-counted.
set -eu
cd "$(dirname "$0")/.."
printf 'non-test Go lines outside benchmark/: %s\n' \
	"$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l | tr -d ' ')"
