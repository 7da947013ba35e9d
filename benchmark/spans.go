package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

// Span names recorded by the harness's own wrappers. Everything else in a
// flight's tree (verify.<stage>, wal.append, "http.client …", "auditor …",
// wire.submit…) is emitted by the program itself.
const (
	spanOpFlight = "op.flight"
	spanOpAccuse = "op.accuse"
	spanOpQuery  = "op.zonequery"
	spanFly      = "operator.fly"
	spanSubmit   = "operator.submit"
	spanCall     = "operator.call"
	spanFix      = "gps.fix"
	spanServe    = "auditor.serve"
	spanAppend   = "storage.append"
)

// Layers: where a span's self time is booked. A span whose name is not
// listed books to its nearest listed ancestor, so transport plumbing
// (http.client, the handler span, wire.submit) lands in the transit layer
// of the operator.call above it and wal.append in the stage that logged.
const (
	layerGlue        = "harness.glue_ms"
	layerHTTPTransit = "http.transit_ms"
	layerWireTransit = "wire.transit_ms"
	layerAuditorSelf = "auditor.self_ms"
	layerAppend      = "storage.append_ms"
	layerTEESign     = "tee.sign_ms"
	layerFix         = "gps.fix_ms"
	layerEncrypt     = "operator.encrypt_ms"
	layerQuerySign   = "operator.query_sign_ms"
	layerAccuseScan  = "auditor.accuse_scan_ms"
)

var layerOfSpan = map[string]string{
	spanOpFlight:         layerGlue,
	spanOpAccuse:         layerGlue,
	spanOpQuery:          layerQuerySign, // the client signs the query nonce before calling
	spanFly:              layerTEESign,   // sampler loop + in-TEE signing + commit construction
	spanFix:              layerFix,
	spanSubmit:           layerEncrypt,
	spanServe:            layerAuditorSelf, // admission wait + glue between stages
	spanAppend:           layerAppend,
	"verify.decrypt":     "sigcrypto.decrypt_ms",
	"verify.decode":      "poa.decode_ms",
	"verify.replay":      "auditor.replay_ms",
	"verify.signature":   "sigcrypto.verify_ms",
	"verify.chronology":  "poa.chronology_ms",
	"verify.speed":       "poa.speed_ms",
	"verify.sufficiency": "poa.sufficiency_ms",
	"verify.structure":   "privacy.structure_ms",
	"verify.predicates":  "privacy.predicates_ms",
	"verify.retain":      "auditor.retain_ms",
	"verify.commit":      "auditor.commit_ms",
	"verify.accusation":  layerAccuseScan,
}

// span is one finished span in the harness's compact form.
type span struct {
	id, parent uint64
	name       string
	start, end int64 // unix ns
	drone      string
	wire       bool // operator.call that rode the binary door
	failed     bool
}

// spanSink keeps every span of the run in memory until the window ends.
type spanSink struct {
	mu    sync.Mutex
	spans []span
}

func (s *spanSink) add(sp span) {
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

// node is a span placed in its flight's tree.
type node struct {
	span
	children []*node
	// Set by settle: the interval clipped to the parent's, the part of it
	// no child covers, and the layer that self time is booked to.
	lo, hi int64
	self   int64
	layer  string
}

// settle clips n to [lo, hi], settles its children inside it and computes
// self time = clipped duration − the part children cover. Children never
// exceed their parent, so with children that do not overlap each other the
// self times of a tree sum to its root's duration.
func (n *node) settle(lo, hi int64, inherited string) {
	n.lo, n.hi = max(n.start, lo), min(n.end, hi)
	if n.hi < n.lo {
		n.hi = n.lo
	}
	n.layer = inherited
	if l, ok := layerOfSpan[n.name]; ok {
		n.layer = l
	}
	if n.name == spanCall {
		n.layer = layerHTTPTransit
		if n.wire {
			n.layer = layerWireTransit
		}
	}
	sort.Slice(n.children, func(i, j int) bool { return n.children[i].start < n.children[j].start })
	covered, edge := int64(0), n.lo
	for _, c := range n.children {
		c.settle(n.lo, n.hi, n.layer)
		if c.hi > edge {
			covered += c.hi - max(c.lo, edge)
			edge = c.hi
		}
	}
	n.self = n.hi - n.lo - covered
}

func (n *node) walk(fn func(*node)) {
	fn(n)
	for _, c := range n.children {
		c.walk(fn)
	}
}

// layerReport is the traced window folded by layer.
type layerReport struct {
	ops       int              // op trees analysed
	opTimeNS  int64            // sum of their root durations
	layerNS   map[string]int64 // self time by layer
	spanCount map[string]int   // spans by name
	spanNS    map[string]int64 // clipped duration by name
	httpCalls int
	wireCalls int
	dropped   int // spans that belong to no analysed op (set-up, warm-up)
}

// buildTrees places every span under its op root. Spans the program
// started without a propagated parent (the binary door carries no trace
// context; the HTTP handler drops it on stream-open) name their drone
// instead: the closed loop has one op in flight per drone, so such a span
// belongs to that drone's op covering its start, under the innermost
// span open at that instant.
func buildTrees(spans []span, inWindow func(start, end int64) bool) (roots []*node, dropped int) {
	byID := make(map[uint64]*node, len(spans))
	nodes := make([]*node, len(spans))
	for i := range spans {
		n := &node{span: spans[i]}
		nodes[i], byID[n.id] = n, n
	}
	opsByDrone := make(map[string][]*node)
	var orphans []*node
	for _, n := range nodes {
		switch p := byID[n.parent]; {
		case n.parent != 0 && p != nil:
			p.children = append(p.children, n)
		case strings.HasPrefix(n.name, "op."):
			if inWindow(n.start, n.end) {
				roots = append(roots, n)
			}
			opsByDrone[n.drone] = append(opsByDrone[n.drone], n)
		default:
			orphans = append(orphans, n)
		}
	}
	for _, o := range orphans {
		var host *node
		for _, op := range opsByDrone[o.drone] {
			if o.drone != "" && op.start <= o.start && o.start <= op.end {
				host = op
				break
			}
		}
		if host == nil {
			dropped++
			continue
		}
		// Descend to the innermost span open when the orphan began: the
		// op is sequential, so that is the call that caused it.
		for again := true; again; {
			again = false
			for _, c := range host.children {
				if c.start <= o.start && o.start <= c.end {
					host, again = c, true
					break
				}
			}
		}
		host.children = append(host.children, o)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].start < roots[j].start })
	return roots, dropped
}

func foldLayers(roots []*node, dropped int) layerReport {
	r := layerReport{
		ops: len(roots), dropped: dropped,
		layerNS: make(map[string]int64), spanCount: make(map[string]int), spanNS: make(map[string]int64),
	}
	for _, root := range roots {
		root.settle(root.start, root.end, layerGlue)
		r.opTimeNS += root.hi - root.lo
		root.walk(func(n *node) {
			r.layerNS[n.layer] += n.self
			r.spanCount[n.name]++
			r.spanNS[n.name] += n.hi - n.lo
			if n.name == spanCall {
				if n.wire {
					r.wireCalls++
				} else {
					r.httpCalls++
				}
			}
		})
	}
	return r
}

// largest returns the layer with the most self time and its share of the
// traced op time.
func (r layerReport) largest() (string, float64) {
	best, bestNS := "", int64(-1)
	for l, ns := range r.layerNS {
		if ns > bestNS || (ns == bestNS && l < best) {
			best, bestNS = l, ns
		}
	}
	if r.opTimeNS == 0 {
		return best, 0
	}
	return best, float64(bestNS) / float64(r.opTimeNS)
}

// spanLine is one JSONL record: a span with its place in the flight.
type spanLine struct {
	Flight  int    `json:"flight"` // all spans of one op share this id
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"` // after stitching
	Name    string `json:"name"`
	Drone   string `json:"drone,omitempty"`
	StartNS int64  `json:"startNs"` // from the first op's start
	DurNS   int64  `json:"durNs"`   // clipped to the parent
	SelfNS  int64  `json:"selfNs"`
	Layer   string `json:"layer"`
	Failed  bool   `json:"failed,omitempty"`
}

// maxSpanLines bounds the JSONL file: whole ops are written, in start
// order, until the next one would pass it.
const maxSpanLines = 100000

func writeSpans(path string, roots []*node) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	lines := 0
	for i, root := range roots {
		size := 0
		root.walk(func(*node) { size++ })
		if lines+size > maxSpanLines {
			break
		}
		lines += size
		var werr error
		var emit func(n, parent *node)
		emit = func(n, parent *node) {
			line := spanLine{
				Flight: i, Span: spanID(n.id), Name: n.name, Drone: n.drone,
				StartNS: n.lo - roots[0].start, DurNS: n.hi - n.lo, SelfNS: n.self, Layer: n.layer, Failed: n.failed,
			}
			if parent != nil {
				line.Parent = spanID(parent.id)
			}
			if e := enc.Encode(line); e != nil && werr == nil {
				werr = e
			}
			for _, c := range n.children {
				emit(c, n)
			}
		}
		emit(root, nil)
		if werr != nil {
			return werr
		}
	}
	return w.Flush()
}

func spanID(id uint64) string { return fmt.Sprintf("%016x", id) }
