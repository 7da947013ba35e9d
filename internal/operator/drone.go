// Package operator implements the drone-side AliDrone client: the Adapter
// daemon that registers the drone, queries the Auditor for no-fly zones
// before flight, runs the (adaptive or fixed-rate) PoA sampler against the
// TEE during flight, encrypts the resulting Proof-of-Alibi with the
// Auditor's public key, persists it locally, and submits it after landing.
package operator

import (
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/tee"
	"repro/internal/zone"
)

var (
	// ErrNotRegistered is returned when flying or submitting before
	// Register succeeded.
	ErrNotRegistered = errors.New("operator: drone not registered with the auditor")
)

// Drone is one AliDrone-equipped aircraft: the TrustZone device plus the
// operator keypair D = (D+, D-) and the client-side protocol state.
type Drone struct {
	dev        *tee.Device
	clock      *tee.SimClock
	opKey      *rsa.PrivateKey // D-
	api        protocol.API
	auditorPub *rsa.PublicKey // Auditor's PoA-encryption key
	random     io.Reader
	metrics    *obs.Registry
	tracer     *otrace.Tracer

	id string // issued by the Auditor at registration
	// disclosure is the disclosure mode negotiated at registration
	// (empty means full). Set with SetDisclosure before Register.
	disclosure string
	// secrets is the client-retained disclosure material of the most
	// recent sealed/commit flight — what answers a selective-disclosure
	// challenge.
	secrets *DisclosureSecrets
	// lastRotate is the flight-clock instant of the last key rotation
	// (registration counts as epoch 0's start); RunMission compares it
	// against MissionConfig.RotateEvery.
	lastRotate time.Time
}

// NewDrone assembles a drone client. The device must already have the GPS
// Sampler TA installed. random defaults to crypto/rand.Reader.
func NewDrone(api protocol.API, auditorPub *rsa.PublicKey, dev *tee.Device, clock *tee.SimClock, operatorKeyBits int, random io.Reader) (*Drone, error) {
	if random == nil {
		random = rand.Reader
	}
	opKey, err := sigcrypto.GenerateKeyPair(random, operatorKeyBits)
	if err != nil {
		return nil, fmt.Errorf("operator keypair: %w", err)
	}
	return &Drone{
		dev:        dev,
		clock:      clock,
		opKey:      opKey,
		api:        api,
		auditorPub: auditorPub,
		random:     random,
	}, nil
}

// ID returns the drone identifier issued at registration (empty before).
func (d *Drone) ID() string { return d.id }

// SetMetrics attaches a metrics registry to the drone stack: the samplers
// and the TEE device all report into it. Call before flying; if the API
// client is an HTTPAuditor, attach the registry there separately.
func (d *Drone) SetMetrics(reg *obs.Registry) {
	d.metrics = reg
	d.dev.SetMetrics(reg)
}

// SetTracer attaches a tracer: each mission then runs under a
// "drone.proof" root span whose identity propagates through the API
// client to the auditor. If the API client is an HTTPAuditor, attach the
// tracer there separately (SetTracer on the client) for per-call
// http.client spans.
func (d *Drone) SetTracer(tr *otrace.Tracer) { d.tracer = tr }

// SetDisclosure selects the disclosure mode announced at registration:
// poa.DisclosureFull (or empty), poa.DisclosureSealed, or
// poa.DisclosureCommit. Call before Register — the mode is negotiated
// there, like the signature suite.
func (d *Drone) SetDisclosure(mode string) error {
	m, err := poa.NormalizeDisclosure(mode)
	if err != nil {
		return err
	}
	d.disclosure = m
	return nil
}

// Disclosure returns the negotiated disclosure mode (full when unset).
func (d *Drone) Disclosure() string {
	if d.disclosure == "" {
		return poa.DisclosureFull
	}
	return d.disclosure
}

// Register performs protocol task 0: export T+ from the TEE, send it with
// D+ to the Auditor, and adopt the issued id_drone.
func (d *Drone) Register() error {
	teePubBytes, err := d.dev.Invoke(tee.GPSSamplerUUID, tee.CmdGetPublicKey, nil)
	if err != nil {
		return fmt.Errorf("export TEE key: %w", err)
	}
	opPub, err := sigcrypto.MarshalPublicKey(&d.opKey.PublicKey)
	if err != nil {
		return fmt.Errorf("marshal operator key: %w", err)
	}
	resp, err := d.api.RegisterDrone(protocol.RegisterDroneRequest{
		OperatorPub: opPub,
		TEEPub:      string(teePubBytes),
		Suite:       d.dev.Vault().SuiteID(),
		Disclosure:  d.disclosure,
	})
	if err != nil {
		return fmt.Errorf("register drone: %w", err)
	}
	d.id = resp.DroneID
	d.lastRotate = d.clock.Now()
	return nil
}

// RotateKey rotates the TEE sign key: the TA generates a successor under
// the same suite, signs the handover record with the outgoing key, and
// the drone announces it to the Auditor, which then accepts the new epoch
// and starts the old key's acceptance window. The Auditor transport must
// implement protocol.RotationAPI.
func (d *Drone) RotateKey() error {
	if d.id == "" {
		return ErrNotRegistered
	}
	rot, ok := d.api.(protocol.RotationAPI)
	if !ok {
		return fmt.Errorf("%w: key rotation on %T", ErrDoorUnsupported, d.api)
	}
	raw, err := d.dev.Invoke(tee.GPSSamplerUUID, tee.CmdRotateKey, []byte(d.id))
	if err != nil {
		return fmt.Errorf("tee key rotation: %w", err)
	}
	var h sigcrypto.Handover
	if err := json.Unmarshal(raw, &h); err != nil {
		return fmt.Errorf("decode handover: %w", err)
	}
	resp, err := rot.RotateKey(protocol.RotateKeyRequest{DroneID: d.id, Handover: h})
	if err != nil {
		return fmt.Errorf("announce key rotation: %w", err)
	}
	if resp.Epoch != h.NewEpoch {
		return fmt.Errorf("operator: auditor acknowledged epoch %d, expected %d", resp.Epoch, h.NewEpoch)
	}
	d.lastRotate = d.clock.Now()
	return nil
}

// QueryZones performs protocol tasks 2-3 for a navigation area.
func (d *Drone) QueryZones(area geo.Rect) ([]zone.NFZ, error) {
	if d.id == "" {
		return nil, ErrNotRegistered
	}
	nonce, err := protocol.NewNonce(d.random)
	if err != nil {
		return nil, err
	}
	req := protocol.ZoneQueryRequest{DroneID: d.id, Area: area, Nonce: nonce}
	if err := protocol.SignZoneQuery(&req, d.opKey); err != nil {
		return nil, err
	}
	resp, err := d.api.ZoneQuery(req)
	if err != nil {
		return nil, fmt.Errorf("zone query: %w", err)
	}
	return resp.Zones, nil
}
