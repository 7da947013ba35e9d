package protocol

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/wire"
)

// This file is the one place a submission outcome is translated to and
// from its binary-transport ack, so the wire door, the drone's wire
// client and the cluster forwarder agree on every status by construction.

// AckFor converts a submission outcome into its wire ack: verdicts keep
// their reason and insufficient-pair count, the typed overload error
// becomes the 429/Retry-After equivalent, anything else an error ack.
func AckFor(seq uint64, resp SubmitPoAResponse, err error) wire.Ack {
	ack := wire.Ack{Seq: seq}
	var over *OverloadedError
	switch {
	case err == nil:
		ack.Status = wire.StatusViolation
		if resp.Verdict == VerdictCompliant {
			ack.Status = wire.StatusCompliant
		}
		ack.Reason = resp.Reason
		if resp.InsufficientPairs > 0 && resp.InsufficientPairs <= math.MaxUint16 {
			ack.InsufficientPairs = uint16(resp.InsufficientPairs)
		}
	case errors.As(err, &over):
		ack.Status = wire.StatusOverloaded
		ack.RetryAfterMS = uint32(over.RetryAfter / time.Millisecond)
		ack.Reason = ErrOverloaded.Error()
	default:
		ack.Status = wire.StatusError
		ack.Reason = err.Error()
	}
	return ack
}

// ResponseFromAck is AckFor's inverse on the receiving side: verdict acks
// become responses, an overload ack the typed *OverloadedError carrying
// the server's hint, and an error ack an error — *MisroutedError when the
// reason is the single-hop guard's, so the 421 semantics survive the
// binary hop.
func ResponseFromAck(droneID string, ack wire.Ack) (SubmitPoAResponse, error) {
	switch ack.Status {
	case wire.StatusCompliant, wire.StatusViolation:
		verdict := VerdictViolation
		if ack.Status == wire.StatusCompliant {
			verdict = VerdictCompliant
		}
		return SubmitPoAResponse{
			Verdict:           verdict,
			Reason:            ack.Reason,
			InsufficientPairs: int(ack.InsufficientPairs),
		}, nil
	case wire.StatusOverloaded:
		return SubmitPoAResponse{}, &OverloadedError{RetryAfter: time.Duration(ack.RetryAfterMS) * time.Millisecond}
	default:
		if strings.Contains(ack.Reason, "misrouted") {
			return SubmitPoAResponse{}, &MisroutedError{DroneID: droneID}
		}
		return SubmitPoAResponse{}, fmt.Errorf("auditor wire: %s", ack.Reason)
	}
}
