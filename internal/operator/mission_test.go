package operator

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/auditor"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/tee"
	"repro/internal/trace"
)

// missionFixture registers a zone near the corridor and returns a ready
// stack, the route and the zone's ID.
func missionFixture(t *testing.T) (*stack, *trace.Route, string) {
	t.Helper()
	s := newInProcessStack(t)
	zoneID, err := s.srv.Zones().Register("alice", geo.GeoCircle{Center: urbana.Offset(0, 1000), R: 100})
	if err != nil {
		t.Fatal(err)
	}
	route, err := trace.ConstantSpeedLine(urbana, 90, 10, t0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return s, route, zoneID
}

// mission is the MissionConfig flying mode m with defaults elsewhere.
func mission(m SamplingMode) MissionConfig {
	return MissionConfig{FlightSpec: FlightSpec{Mode: m}}
}

// registerFor registers the stack's drone under the mode's natural
// disclosure.
func (s *stack) registerFor(t *testing.T, m SamplingMode) {
	t.Helper()
	if disc := m.Disclosure(); disc != "" {
		if err := s.drone.SetDisclosure(disc); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.drone.Register(); err != nil {
		t.Fatal(err)
	}
}

func TestMissionModes(t *testing.T) {
	modes := []struct {
		name string
		cfg  MissionConfig
		want protocol.Verdict
	}{
		{"adaptive", mission(ModeAdaptive), protocol.VerdictCompliant},
		{"default-is-adaptive", MissionConfig{}, protocol.VerdictCompliant},
		{"fixed", MissionConfig{FlightSpec: FlightSpec{Mode: ModeFixedRate, FixedRateHz: 2}}, protocol.VerdictCompliant},
		{"batch", mission(ModeBatch), protocol.VerdictCompliant},
		{"mac", mission(ModeMAC), protocol.VerdictCompliant},
		{"streaming", mission(ModeStreaming), protocol.VerdictCompliant},
		{"sealed", mission(ModeSealed), protocol.VerdictRetained},
		{"commit", mission(ModeCommit), protocol.VerdictCompliant},
	}
	for _, tt := range modes {
		t.Run(tt.name, func(t *testing.T) {
			s, route, zoneID := missionFixture(t)
			rx := s.withReceiver(t, route, 5)
			s.registerFor(t, tt.cfg.Mode)
			rep, err := s.drone.RunMission(rx, route, tt.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Verdict.Verdict != tt.want {
				t.Fatalf("verdict = %v (%s), want %v", rep.Verdict.Verdict, rep.Verdict.Reason, tt.want)
			}
			if len(rep.Zones) != 1 {
				t.Errorf("mission saw %d zones, want 1", len(rep.Zones))
			}
			if rep.Run == nil || rep.Run.PoA.Len() < 1 {
				t.Error("mission recorded no samples")
			}
			if tt.cfg.Mode.Disclosure() == "" {
				return
			}
			// A hiding mode settles an accusation only through a reveal
			// of the spanning pair.
			acc, err := s.srv.HandleAccusation(s.drone.ID(), zoneID, t0.Add(30*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			if acc.Verdict != protocol.VerdictDisclosureRequired || acc.Challenge == nil {
				t.Fatalf("accusation = %+v, want disclosure-required with a challenge", acc)
			}
			final, err := s.drone.RevealForChallengeCtx(context.Background(), *acc.Challenge)
			if err != nil {
				t.Fatal(err)
			}
			if final.Verdict != protocol.VerdictCompliant {
				t.Errorf("post-reveal verdict = %v (%s), want compliant", final.Verdict, final.Reason)
			}
		})
	}
}

// TestMissionProofsSampleForSample pins, per mode, what the drone proves
// and what that costs the secure world: SHA-256 over every recorded
// sample's (time, lat, lon) and the device's signature, MAC and SMC
// deltas across RunMission. Every adaptive mode flies the held-read rule:
// 17 samples, one world switch each. Algorithm 1's 19-sample trace of the
// same flight stays pinned in the sampling package
// (TestRulesOnTheMissionFixture).
func TestMissionProofsSampleForSample(t *testing.T) {
	const trace17 = "2be692379e90789322a2a900631c3eadb657f2aa8eea45af0c718f4871083efa"
	pins := []struct {
		cfg               MissionConfig
		samples           int
		sha               string
		signs, macs, smcs uint64
		want              protocol.Verdict
	}{
		{mission(ModeAdaptive), 17, trace17, 17, 0, 17, protocol.VerdictCompliant},
		{MissionConfig{FlightSpec: FlightSpec{Mode: ModeFixedRate, FixedRateHz: 2}}, 121,
			"72b87541bdbbc31f0b2fd4068f229b152e9c4f0aa8a420b7e3c89f5993c2caa1", 121, 0, 121, protocol.VerdictCompliant},
		{mission(ModeBatch), 17, trace17, 1, 0, 18, protocol.VerdictCompliant},
		{mission(ModeMAC), 17, trace17, 0, 17, 18, protocol.VerdictCompliant},
		{mission(ModeStreaming), 17, trace17, 17, 0, 17, protocol.VerdictCompliant},
		{mission(ModeSealed), 17, trace17, 17, 0, 17, protocol.VerdictRetained},
		{mission(ModeCommit), 17, trace17, 18, 0, 18, protocol.VerdictCompliant},
	}
	for _, pin := range pins {
		t.Run(pin.cfg.Mode.String(), func(t *testing.T) {
			s, route, _ := missionFixture(t)
			// A second zone 30 m off the line makes the adaptive sampler
			// work near it.
			if _, err := s.srv.Zones().Register("bob", geo.GeoCircle{Center: urbana.Offset(90, 300).Offset(0, 60), R: 30}); err != nil {
				t.Fatal(err)
			}
			rx := s.withReceiver(t, route, 5)
			s.registerFor(t, pin.cfg.Mode)
			before := s.dev.Snapshot()
			rep, err := s.drone.RunMission(rx, route, pin.cfg)
			if err != nil {
				t.Fatal(err)
			}
			after := s.dev.Snapshot()

			h := sha256.New()
			var b [24]byte
			for _, ss := range rep.Run.PoA.Samples {
				binary.BigEndian.PutUint64(b[0:], uint64(ss.Sample.Time.UnixNano()))
				binary.BigEndian.PutUint64(b[8:], math.Float64bits(ss.Sample.Pos.Lat))
				binary.BigEndian.PutUint64(b[16:], math.Float64bits(ss.Sample.Pos.Lon))
				h.Write(b[:])
			}
			if n := rep.Run.PoA.Len(); n != pin.samples {
				t.Errorf("samples = %d, want %d", n, pin.samples)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != pin.sha {
				t.Errorf("trace digest = %s, want %s", got, pin.sha)
			}
			if d := after.Signs - before.Signs; d != pin.signs {
				t.Errorf("signs = %d, want %d", d, pin.signs)
			}
			if d := after.MACs - before.MACs; d != pin.macs {
				t.Errorf("MACs = %d, want %d", d, pin.macs)
			}
			if d := after.SMCCalls - before.SMCCalls; d != pin.smcs {
				t.Errorf("SMC calls = %d, want %d", d, pin.smcs)
			}
			if rep.Verdict.Verdict != pin.want {
				t.Errorf("verdict = %v (%s), want %v", rep.Verdict.Verdict, rep.Verdict.Reason, pin.want)
			}
		})
	}
}

func TestMissionWithStore(t *testing.T) {
	s, route, _ := missionFixture(t)
	rx := s.withReceiver(t, route, 5)
	if err := s.drone.Register(); err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := mission(ModeAdaptive)
	cfg.Store, cfg.FlightID = store, "f-1"
	rep, err := s.drone.RunMission(rx, route, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlightID != "f-1" {
		t.Errorf("flight id = %q", rep.FlightID)
	}
	rec, err := store.Load("f-1")
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Submitted {
		t.Error("record not marked submitted")
	}
	if len(rec.EncryptedPoA) == 0 {
		t.Error("record holds no ciphertext")
	}
}

// bareAPI is the four-method protocol.API over a server — none of the
// optional doors — counting every call.
type bareAPI struct {
	srv   *auditor.Server
	calls int
}

func (b *bareAPI) RegisterDrone(req protocol.RegisterDroneRequest) (protocol.RegisterDroneResponse, error) {
	b.calls++
	return b.srv.RegisterDrone(req)
}

func (b *bareAPI) RegisterZone(req protocol.RegisterZoneRequest) (protocol.RegisterZoneResponse, error) {
	b.calls++
	return b.srv.RegisterZone(req)
}

func (b *bareAPI) ZoneQuery(req protocol.ZoneQueryRequest) (protocol.ZoneQueryResponse, error) {
	b.calls++
	return b.srv.ZoneQuery(req)
}

func (b *bareAPI) SubmitPoA(req protocol.SubmitPoARequest) (protocol.SubmitPoAResponse, error) {
	b.calls++
	return b.srv.SubmitPoA(req)
}

func TestMissionValidation(t *testing.T) {
	s, route, _ := missionFixture(t)
	rx := s.withReceiver(t, route, 5)
	if _, err := s.drone.RunMission(rx, route, MissionConfig{}); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("unregistered err = %v", err)
	}

	// Every rejection comes from the mode table, before the first call
	// reaches the auditor.
	bare := &bareAPI{srv: s.srv}
	b := newStack(t, bare, s.srv)
	_ = b.withReceiver(t, route, 5)
	if err := b.drone.Register(); err != nil {
		t.Fatal(err)
	}
	bare.calls = 0
	rotating := mission(ModeAdaptive)
	rotating.RotateEvery = time.Minute
	for _, tc := range []struct {
		name string
		cfg  MissionConfig
		door bool // rejected for a missing door
	}{
		{"unknown mode", mission(SamplingMode(99)), false},
		{"fixed without rate", mission(ModeFixedRate), false},
		{"batch without ModesAPI", mission(ModeBatch), true},
		{"mac without ModesAPI", mission(ModeMAC), true},
		{"streaming without StreamAPI", mission(ModeStreaming), true},
		{"sealed without DisclosureAPI", mission(ModeSealed), true},
		{"commit without DisclosureAPI", mission(ModeCommit), true},
		{"rotation without RotationAPI", rotating, true},
	} {
		_, err := b.drone.RunMission(rx, route, tc.cfg)
		if err == nil || errors.Is(err, ErrDoorUnsupported) != tc.door {
			t.Errorf("%s: err = %v", tc.name, err)
		}
	}
	if bare.calls != 0 {
		t.Errorf("rejected missions made %d auditor calls, want 0", bare.calls)
	}
}

// revealCounter is the in-process server, counting Reveal calls.
type revealCounter struct {
	*auditor.Server
	reveals int
}

func (r *revealCounter) Reveal(req protocol.RevealRequest) (protocol.SubmitPoAResponse, error) {
	r.reveals++
	return r.Server.Reveal(req)
}

// swapSource is the GPS source behind the device's sampler TA, which is
// installed once: the test points it at each flight's receiver in turn.
type swapSource struct{ *gps.Driver }

// TestRevealOnlyTheChallengedFlight pins the privacy promise across
// flights: the drone keeps the material of its latest sealed flight, so a
// challenge on an earlier one must be refused outright — answering it
// with the latest flight's keys of the same pair index would disclose two
// positions nobody accused.
func TestRevealOnlyTheChallengedFlight(t *testing.T) {
	s, _, zoneID := missionFixture(t)
	counter := &revealCounter{Server: s.srv}
	d := newStack(t, counter, s.srv)
	src := &swapSource{}
	if _, err := tee.NewGPSSampler(d.dev, src, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	d.registerFor(t, ModeSealed)
	for _, start := range []time.Time{t0, t0.Add(10 * time.Minute)} {
		route, err := trace.ConstantSpeedLine(urbana, 90, 10, start, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		rx, err := gps.NewReceiver(route, 5)
		if err != nil {
			t.Fatal(err)
		}
		src.Driver = gps.NewDriver(rx)
		rep, err := d.drone.RunMission(rx, route, mission(ModeSealed))
		if err != nil || rep.Verdict.Verdict != protocol.VerdictRetained {
			t.Fatalf("sealed flight at %v: %v / %+v", start, err, rep)
		}
	}

	acc, err := s.srv.HandleAccusation(d.drone.ID(), zoneID, t0.Add(30*time.Second))
	if err != nil || acc.Challenge == nil {
		t.Fatalf("accusation of the first flight: %v / %+v", err, acc)
	}
	if _, err := d.drone.RevealForChallengeCtx(context.Background(), *acc.Challenge); !errors.Is(err, ErrNoSecrets) {
		t.Errorf("reveal for the first flight err = %v, want ErrNoSecrets", err)
	}
	if counter.reveals != 0 {
		t.Errorf("%d reveals reached the auditor, want 0", counter.reveals)
	}
}

func TestAnswerRefusesChallengesItCannotSpan(t *testing.T) {
	entries := make([]poa.Sample, 3)
	for i := range entries {
		entries[i] = poa.Sample{Pos: urbana, Time: t0.Add(time.Duration(i) * time.Second)}
	}
	sealed, err := sealedSecrets(entries)
	if err != nil {
		t.Fatal(err)
	}
	ok := protocol.DisclosureChallenge{Mode: poa.DisclosureSealed, At: t0.Add(1500 * time.Millisecond), PairIndex: 1}
	if req, err := sealed.Answer(ok); err != nil || len(req.Keys) != 2 {
		t.Fatalf("spanning challenge: %v / %d keys", err, len(req.Keys))
	}
	for _, tc := range []struct {
		name string
		edit func(*protocol.DisclosureChallenge)
	}{
		{"other mode", func(c *protocol.DisclosureChallenge) { c.Mode = poa.DisclosureCommit }},
		{"pair before the instant", func(c *protocol.DisclosureChallenge) { c.PairIndex = 0 }},
		{"instant after the pair", func(c *protocol.DisclosureChallenge) { c.At = t0.Add(3 * time.Second) }},
		{"instant before the pair", func(c *protocol.DisclosureChallenge) { c.At = t0.Add(500 * time.Millisecond) }},
		{"pair out of range", func(c *protocol.DisclosureChallenge) { c.PairIndex = 2 }},
		{"negative pair", func(c *protocol.DisclosureChallenge) { c.PairIndex = -1 }},
	} {
		ch := ok
		tc.edit(&ch)
		if _, err := sealed.Answer(ch); !errors.Is(err, ErrNoSecrets) {
			t.Errorf("%s: err = %v, want ErrNoSecrets", tc.name, err)
		}
	}
	var none *DisclosureSecrets
	if _, err := none.Answer(ok); !errors.Is(err, ErrNoSecrets) {
		t.Errorf("no secrets: err = %v, want ErrNoSecrets", err)
	}
}

// sealedSecrets seals samples the way a sealed flight's finish step does.
func sealedSecrets(samples []poa.Sample) (*DisclosureSecrets, error) {
	p := &Proof{Run: &sampling.RunResult{}}
	for _, s := range samples {
		p.Run.PoA.Append(poa.SignedSample{Sample: s})
	}
	d := &Drone{random: rand.New(rand.NewSource(7))}
	if err := sealPositions(d, p, nil); err != nil {
		return nil, err
	}
	return d.secrets, nil
}
