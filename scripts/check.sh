#!/bin/sh
# check.sh is the repository gate: everything a change must pass before
# merging. The race detector is part of the gate because the observability
# layer is read concurrently (scrapes) with the serving path.
set -eu
cd "$(dirname "$0")/.."

echo ">> gofmt -l"
UNFORMATTED="$(gofmt -l .)"
if [ -n "${UNFORMATTED}" ]; then
	echo "gofmt needed on:" >&2
	echo "${UNFORMATTED}" >&2
	exit 1
fi

echo ">> go vet ./..."
go vet ./...

# staticcheck is part of the merge gate but is not vendored: CI installs a
# pinned version (see .github/workflows/ci.yml). Locally it runs when the
# binary is on PATH and is skipped with a notice otherwise, so offline
# checkouts still pass the rest of the gate.
if command -v staticcheck >/dev/null 2>&1; then
	echo ">> staticcheck ./..."
	staticcheck ./...
else
	echo ">> staticcheck not found; skipping (CI runs it — go install honnef.co/go/tools/cmd/staticcheck@2025.1.1)"
fi

echo ">> go build ./..."
go build ./...

# The envelope is RSA-OAEP + AES-GCM (internal/sigcrypto/envelope.go).
# PKCS#1 v1.5 encryption must not come back in shipped code: it is a
# padding oracle and costs one private-key operation per block.
echo ">> no PKCS#1 v1.5 encryption outside tests"
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build '(Encrypt|Decrypt)PKCS1v15' .; then
	echo "PKCS#1 v1.5 encryption in a non-test Go file (use sigcrypto.Seal/Open)" >&2
	exit 1
fi

# Metrics naming gate: every Metric* constant follows the
# alidrone_[a-z0-9_]+ convention and obs.L call sites pass label keys in
# sorted order (see scripts/metricslint/main.go). A misnamed series
# fractures the fleet-merged exposition into near-duplicate families.
echo ">> go run ./scripts/metricslint"
go run ./scripts/metricslint .

echo ">> go test -race ./..."
go test -race ./...

# The pipelined client connection is shared by every wire submission and
# every cluster forward; its concurrency tests run ten times over so a
# rare interleaving gets more than one chance to show.
echo ">> go test -race -count=10 ./internal/wire -run 'Conn|Dial'"
go test -race -count=10 ./internal/wire -run 'Conn|Dial'

# Ten seconds of coverage-guided fuzzing over the wire codec: the decoder
# faces untrusted bytes from the network, so the gate exercises it beyond
# the checked-in corpus on every run.
echo ">> go test ./internal/wire -fuzz FuzzDecodeFrame -fuzztime 10s"
go test ./internal/wire -run '^$' -fuzz FuzzDecodeFrame -fuzztime 10s

# The disclosure codecs face the same untrusted bytes: Merkle proofs
# arrive from accused operators, commit envelopes from any drone.
echo ">> go test ./internal/poa -fuzz FuzzDecodeMerkleProof -fuzztime 10s"
go test ./internal/poa -run '^$' -fuzz FuzzDecodeMerkleProof -fuzztime 10s

echo ">> go test ./internal/privacy -fuzz FuzzDecodeCommitEnvelope -fuzztime 10s"
go test ./internal/privacy -run '^$' -fuzz FuzzDecodeCommitEnvelope -fuzztime 10s

# The one record decoder reads whatever the disk and cluster peers hand
# it: any kind, any payload must come back as state or as an error.
echo ">> go test ./internal/auditor -fuzz FuzzApplyRecord -fuzztime 10s"
go test ./internal/auditor -run '^$' -fuzz FuzzApplyRecord -fuzztime 10s

# The envelope opener is the first code to touch a submission's bytes.
echo ">> go test ./internal/sigcrypto -fuzz FuzzOpenEnvelope -fuzztime 10s"
go test ./internal/sigcrypto -run '^$' -fuzz FuzzOpenEnvelope -fuzztime 10s

# Two-node cluster end-to-end smoke: register a drone on node A, submit
# its PoA through node B, and expect a transparent forward plus a
# compliant verdict. The full suite above already runs this test; the
# explicit -count=1 invocation keeps the cluster path in the gate even
# when test caching or a narrowed suite would skip it.
echo ">> go test ./internal/auditor -run TestClusterTwoNodeSmoke -count=1"
go test ./internal/auditor -run 'TestClusterTwoNodeSmoke$' -count=1

# Absolute per-stage budget (ROADMAP north star: gates are budgets per door
# and per stage, not only ratios). The sufficiency stage cost 65 ms of a
# traced street-full-http flight before the exact test went lower-bound
# first and costs ~0.2 ms since; 10 ms is the ROADMAP's bar and a 50x
# margin, so a slow runner cannot trip it but a return to minimising every
# (pair, zone) does. The same run's correctness gate must hold.
echo ">> stage budget: poa.sufficiency_ms < 10 on a traced street-full-http run"
RESULT="$(bash benchmark/run.sh --workload street-full-http --seed 1 --seconds 3 --trace 1 | tail -n 1)"
MS="$(printf '%s\n' "${RESULT}" | sed -n 's/.*"poa\.sufficiency_ms":{"value":\([0-9.eE+-]*\).*/\1/p')"
if ! printf '%s\n' "${RESULT}" | grep -q '"correct":true' || ! awk -v ms="${MS}" 'BEGIN { exit !(ms != "" && ms + 0 < 10) }'; then
	echo "stage budget failed: poa.sufficiency_ms=${MS:-missing} (want < 10), or the run's correctness gate did not pass" >&2
	exit 1
fi

echo "all checks passed"
./scripts/loc.sh
