package protocol

import "context"

// API is the Auditor-side protocol surface. The in-process auditor.Server
// implements it directly; auditor.Handler exposes it over HTTP and
// operator.HTTPAuditor consumes that — so drone-side code is transport
// agnostic.
type API interface {
	RegisterDrone(RegisterDroneRequest) (RegisterDroneResponse, error)
	RegisterZone(RegisterZoneRequest) (RegisterZoneResponse, error)
	ZoneQuery(ZoneQueryRequest) (ZoneQueryResponse, error)
	SubmitPoA(SubmitPoARequest) (SubmitPoAResponse, error)
}

// ContextBinder is implemented by API transports that can carry a
// context.Context across calls — cancellation and trace propagation —
// without widening the API interface itself. BindContext returns an API
// whose calls run under ctx; implementations must not mutate the
// receiver, so one client can serve many concurrent missions.
type ContextBinder interface {
	BindContext(ctx context.Context) API
}

// BindContext resolves the API to use for calls under ctx: api's bound
// form when it implements ContextBinder, api itself otherwise.
func BindContext(ctx context.Context, api API) API {
	if b, ok := api.(ContextBinder); ok {
		return b.BindContext(ctx)
	}
	return api
}

// HeaderTraceParent is the HTTP header carrying the trace context of the
// submitting drone across the wire, in the W3C traceparent shape
// produced by obs/trace.SpanContext.Header. The auditor continues the
// drone's trace from it; absence (or malformation) simply starts a local
// trace.
const HeaderTraceParent = "Traceparent"

// Endpoint paths of the HTTP transport.
const (
	PathRegisterDrone = "/v1/register-drone"
	PathRegisterZone  = "/v1/register-zone"
	PathZoneQuery     = "/v1/zone-query"
	PathSubmitPoA     = "/v1/submit-poa"
	PathAuditorPub    = "/v1/auditor-pub"
	// PathPublicZones is the unauthenticated B4UFLY-style lookup: anyone
	// may ask which no-fly zones are near a point (the FAA publishes the
	// same information through its mobile app, which the paper cites).
	PathPublicZones = "/v1/zones"
	// PathStatus is the operational status endpoint.
	PathStatus = "/v1/status"
)

// StatusResponse summarises the Auditor's operational state.
type StatusResponse struct {
	Drones       int `json:"drones"`
	Zones        int `json:"zones"`
	RetainedPoAs int `json:"retainedPoAs"`
	// Commitments counts retained sealed/commit disclosures awaiting
	// possible accusation.
	Commitments int `json:"commitments,omitempty"`
	OpenStreams int `json:"openStreams"`
	Sessions    int `json:"sessions"`
	// WireConnections counts the live binary-transport connections
	// (the -wire-addr listener; zero when it is not serving).
	WireConnections int `json:"wireConnections,omitempty"`
}
