package protocol

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/sigcrypto"
	"repro/internal/wire"
)

// ackRoundTrip carries one outcome over the binary transport: AckFor, the
// coalesced ack frame and back, then ResponseFromAck.
func ackRoundTrip(t *testing.T, resp SubmitPoAResponse, err error) (SubmitPoAResponse, error) {
	t.Helper()
	frame, encErr := wire.EncodeAcks(nil, []wire.Ack{AckFor(7, resp, err)})
	if encErr != nil {
		t.Fatal(encErr)
	}
	_, body, splitErr := wire.SplitType(frame[wire.HeaderBytes+1:])
	if splitErr != nil {
		t.Fatal(splitErr)
	}
	acks, decErr := wire.DecodeAcks(body)
	if decErr != nil || len(acks) != 1 || acks[0].Seq != 7 {
		t.Fatalf("decoded acks %+v, %v", acks, decErr)
	}
	return ResponseFromAck("drone-1", acks[0])
}

func TestAckRoundTrip(t *testing.T) {
	for _, want := range []SubmitPoAResponse{
		{Verdict: VerdictCompliant},
		{Verdict: VerdictViolation, Reason: "insufficient alibi", InsufficientPairs: 3},
	} {
		got, err := ackRoundTrip(t, want, nil)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %+v, %v; want %+v", want.Verdict, got, err, want)
		}
	}
	// A count beyond the ack's 16 bits is dropped, not wrapped.
	if got, _ := ackRoundTrip(t, SubmitPoAResponse{Verdict: VerdictViolation, InsufficientPairs: math.MaxUint16 + 1}, nil); got.InsufficientPairs != 0 {
		t.Errorf("oversized pair count came back as %d", got.InsufficientPairs)
	}

	_, err := ackRoundTrip(t, SubmitPoAResponse{}, &OverloadedError{RetryAfter: 1500 * time.Millisecond})
	var over *OverloadedError
	if !errors.As(err, &over) || over.RetryAfter != 1500*time.Millisecond || !errors.Is(err, ErrOverloaded) {
		t.Errorf("overloaded: %v", err)
	}
	if want := "protocol: auditor overloaded (retry after 1.5s)"; err == nil || err.Error() != want {
		t.Errorf("overloaded error = %v, want %q", err, want)
	}

	_, err = ackRoundTrip(t, SubmitPoAResponse{}, fmt.Errorf("store: disk full"))
	if err == nil || err.Error() != "auditor wire: store: disk full" {
		t.Errorf("error ack = %v", err)
	}

	_, err = ackRoundTrip(t, SubmitPoAResponse{}, &MisroutedError{DroneID: "drone-1", Owner: "node-b"})
	var mis *MisroutedError
	if !errors.As(err, &mis) || mis.DroneID != "drone-1" || !errors.Is(err, ErrMisrouted) {
		t.Errorf("misrouted: %v", err)
	}
	if want := `protocol: request misrouted past its owning node: drone "drone-1" (owner here: "node-b")`; (&MisroutedError{DroneID: "drone-1", Owner: "node-b"}).Error() != want {
		t.Errorf("misrouted error text = %q", (&MisroutedError{DroneID: "drone-1", Owner: "node-b"}).Error())
	}
}

func TestIsVerdictError(t *testing.T) {
	for _, err := range []error{
		ErrBadSignature,
		fmt.Errorf("sample 3: %w", sigcrypto.ErrBadSignature),
		fmt.Errorf("%w: 4", ErrUnknownEpoch),
		fmt.Errorf("%w: epoch 0 retired", ErrEpochExpired),
	} {
		if !IsVerdictError(err) {
			t.Errorf("%v: not a verdict error", err)
		}
	}
	if IsVerdictError(errors.New("wal: append failed")) {
		t.Error("an internal fault counted as a verdict error")
	}
}
