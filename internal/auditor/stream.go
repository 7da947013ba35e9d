package auditor

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/auditor/pipeline"
	"repro/internal/poa"
	"repro/internal/protocol"
)

// ErrUnknownStream is returned for operations on a stream that was never
// opened or was already closed.
var ErrUnknownStream = errors.New("auditor: unknown stream id")

var _ protocol.StreamAPI = (*Server)(nil)

// streamState is one in-flight real-time audit. Its own lock serializes
// sample processing per stream (samples within a flight are ordered)
// while distinct streams proceed fully in parallel.
type streamState struct {
	mu       sync.Mutex
	DroneID  string
	Samples  []poa.Sample
	Violated bool
	Reason   string
}

// OpenStream starts a real-time audit for a registered drone.
func (s *Server) OpenStream(req protocol.OpenStreamRequest) (protocol.OpenStreamResponse, error) {
	rec, ok := s.drones.get(req.DroneID)
	if !ok {
		return protocol.OpenStreamResponse{}, fmt.Errorf("%w: %q", ErrUnknownDrone, req.DroneID)
	}
	if err := requireDisclosure(rec, poa.DisclosureFull); err != nil {
		return protocol.OpenStreamResponse{}, err
	}
	id := s.streams.issue(s.cfg.Clock.Now(), func(string) *streamState { return &streamState{DroneID: req.DroneID} })
	return protocol.OpenStreamResponse{StreamID: id}, nil
}

// StreamSample verifies one incoming signed sample incrementally through
// the shared pipeline stages: signature, then chronology, flyability and
// pair sufficiency of the (previous, new) pair. The first failing check
// marks the whole stream violated — the real-time property the mode
// exists for.
func (s *Server) StreamSample(req protocol.StreamSampleRequest) (protocol.StreamSampleResponse, error) {
	return s.StreamSampleCtx(context.Background(), req)
}

// StreamSampleCtx is StreamSample under a caller context: an aborted check
// surfaces as the context error, never as a stream violation.
func (s *Server) StreamSampleCtx(ctx context.Context, req protocol.StreamSampleRequest) (protocol.StreamSampleResponse, error) {
	st, ok := s.streams.get(req.StreamID)
	if !ok {
		return protocol.StreamSampleResponse{}, fmt.Errorf("%w: %q", ErrUnknownStream, req.StreamID)
	}
	rec, _ := s.drones.get(st.DroneID)
	if err := s.admission.Acquire(ctx, st.DroneID); err != nil {
		return protocol.StreamSampleResponse{}, err
	}
	defer s.admission.Release()

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.Violated {
		return protocol.StreamSampleResponse{Verdict: protocol.VerdictViolation, Reason: st.Reason}, nil
	}

	// The signature stage sees a one-sample PoA; the pair stages see the
	// (previous, new) window — the incremental slice of the same checks
	// the batch path runs over the whole trace.
	sample := req.Sample.Sample
	sub := &pipeline.Submission{
		DroneID: st.DroneID,
		PoA:     poa.PoA{Samples: []poa.SignedSample{req.Sample}},
		Keys:    s.ring(rec),
		Suite:   rec.Suite,
	}
	seq := s.seqStreamSig
	if n := len(st.Samples); n > 0 {
		sub.Samples = []poa.Sample{st.Samples[n-1], sample}
		seq = s.seqStreamPair
	}
	resp, err := s.runner.Run(ctx, sub, seq)
	if err != nil {
		return protocol.StreamSampleResponse{}, err
	}
	if resp.Verdict != protocol.VerdictCompliant {
		st.Violated = true
		st.Reason = resp.Reason
		return protocol.StreamSampleResponse{Verdict: protocol.VerdictViolation, Reason: resp.Reason}, nil
	}

	st.Samples = append(st.Samples, sample)
	return protocol.StreamSampleResponse{Verdict: protocol.VerdictCompliant}, nil
}

// CloseStream finalises the flight: a violated stream stays a violation;
// a clean stream with at least two samples runs the closing stage
// (retention) and is kept like a submitted PoA.
func (s *Server) CloseStream(req protocol.CloseStreamRequest) (protocol.SubmitPoAResponse, error) {
	return s.CloseStreamCtx(context.Background(), req)
}

// CloseStreamCtx is CloseStream under a caller context.
func (s *Server) CloseStreamCtx(ctx context.Context, req protocol.CloseStreamRequest) (protocol.SubmitPoAResponse, error) {
	start := s.verdictStart()
	resp, err := s.closeStream(ctx, req)
	if err == nil {
		s.observeVerdict(DoorStream, start)
	}
	return resp, err
}

func (s *Server) closeStream(ctx context.Context, req protocol.CloseStreamRequest) (protocol.SubmitPoAResponse, error) {
	st, ok := s.streams.remove(req.StreamID)
	if !ok {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: %q", ErrUnknownStream, req.StreamID)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.Violated {
		return protocol.SubmitPoAResponse{Verdict: protocol.VerdictViolation, Reason: st.Reason}, nil
	}
	if len(st.Samples) < 2 {
		return protocol.SubmitPoAResponse{Verdict: protocol.VerdictViolation, Reason: "stream ended with fewer than two samples"}, nil
	}
	sub := &pipeline.Submission{DroneID: st.DroneID, Samples: st.Samples}
	return s.runner.Run(ctx, sub, s.seqStreamClose)
}
