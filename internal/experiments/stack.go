// Package experiments regenerates every table and figure of the paper's
// evaluation section (§VI) on the simulated substrate: Fig 6 (airport
// scenario sample counts), Fig 7 (residential layout), Fig 8 a-c
// (residential distance/rate/insufficiency series) and Table II (CPU,
// power and memory benchmarks). Each experiment returns structured results
// plus a Render method that prints the same rows/series the paper reports;
// cmd/alidrone-experiments and the bench harness are thin wrappers.
package experiments

import (
	"math/rand"
	"time"

	"repro/internal/gps"
	"repro/internal/sampling"
	"repro/internal/sigcrypto"
	"repro/internal/tee"
)

// simStart is the fixed departure time of all experiment flights;
// determinism makes every run reproducible bit-for-bit.
var simStart = time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)

// stack is one drone platform instance wired over a path.
type stack struct {
	env sampling.Env
	dev *tee.Device
}

// newStack manufactures a platform over the path. The key size only
// matters for real signature bytes; performance is modelled from counters,
// so experiments always sign with 1024-bit keys to keep runs fast.
func newStack(p gps.Path, rateHz float64, seed int64, opts ...gps.ReceiverOption) (*stack, error) {
	pl, err := tee.NewPlatform(p, rateHz, sigcrypto.SuiteRSA1024, rand.New(rand.NewSource(seed)), opts...)
	if err != nil {
		return nil, err
	}
	return &stack{env: sampling.NewTEEEnv(pl.Device, pl.Clock, pl.Receiver), dev: pl.Device}, nil
}
