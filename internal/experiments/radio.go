package experiments

import (
	"fmt"
	"io"

	"repro/internal/perf"
)

// RadioResult quantifies the offline-vs-streaming submission trade-off
// (the §IV-B design decision) on the two field studies, using the radio
// energy model and the actual sample counts of the Fig 6 / Fig 8 runs.
type RadioResult struct {
	Rows []RadioRow
}

// RadioRow is one scenario's energy comparison.
type RadioRow struct {
	Scenario       string
	Samples        int
	FlightSeconds  float64
	OfflineJoules  float64
	StreamJoules   float64
	OverheadFactor float64
}

// bytesPerEncryptedSample approximates one PoA record on the wire:
// canonical sample + RSA-1024 signature in their serialised form. The
// encryption envelope adds a per-flight constant, nothing per sample.
const bytesPerEncryptedSample = 256

// RunRadio derives the energy comparison from fresh scenario runs.
func RunRadio() (*RadioResult, error) {
	radio := perf.DefaultRadioModel()
	res := &RadioResult{}

	fig6, err := RunFig6()
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, radioRow(radio, "airport (adaptive)", fig6.AdaptiveSamples, 720))

	fig8, err := RunFig8()
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, radioRow(radio, "residential (adaptive)", fig8.Samples["adaptive"], 155))
	res.Rows = append(res.Rows, radioRow(radio, "residential (5 Hz fixed)", fig8.Samples["5Hz"], 155))
	return res, nil
}

func radioRow(radio *perf.RadioModel, name string, samples int, flightSec float64) RadioRow {
	flight := secondsToDuration(flightSec)
	return RadioRow{
		Scenario:       name,
		Samples:        samples,
		FlightSeconds:  flightSec,
		OfflineJoules:  radio.OfflineSubmissionJoules(samples * bytesPerEncryptedSample),
		StreamJoules:   radio.StreamingSubmissionJoules(samples, bytesPerEncryptedSample, flight),
		OverheadFactor: radio.StreamingOverheadFactor(samples, bytesPerEncryptedSample, flight),
	}
}

// Render prints the comparison.
func (r *RadioResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Radio energy — offline submission vs real-time streaming (§IV-B rationale)")
	fmt.Fprintf(w, "  %-26s %8s %10s %12s %12s %10s\n",
		"scenario", "samples", "flight", "offline", "streaming", "factor")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-26s %8d %8.0f s %10.3f J %10.3f J %9.1fx\n",
			row.Scenario, row.Samples, row.FlightSeconds,
			row.OfflineJoules, row.StreamJoules, row.OverheadFactor)
	}
	fmt.Fprintln(w, "  (offline wins by an order of magnitude — the paper's goal-G2 choice)")
}
