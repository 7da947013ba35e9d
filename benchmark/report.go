package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// metricDef names one reported metric. The two lists below are the
// program's side of BENCHMARK.json; smoke_test.go holds them equal.
type metricDef struct {
	Name, Unit string
}

// endToEnd is what a user of the system sees, as far as it repeats from
// run to run well enough to carry a bound. Every workload reports all of
// them on an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"flights_per_s", "1/s"},
	{"verdict_p50_ms", "ms"},
	{"prove_p50_ms", "ms"},
	{"cpu_ms_per_flight", "ms"},
	{"wire_bytes_per_flight", "B"},
}

// unbounded are end-to-end figures too, printed with the ones above, but
// BENCHMARK.json carries them in the per-layer section, without a bound:
// two do not repeat within a quarter on every workload, failed_share is 0
// by design and four exist on city-audit-mixed only (README, "What moved
// where").
var unbounded = []metricDef{
	{"verdict_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"failed_share", "ratio"},
	{"accuse_p50_ms", "ms"},
	{"accuse_p90_ms", "ms"},
	{"zonequery_p50_ms", "ms"},
	{"zonequery_p90_ms", "ms"},
}

// perLayer is the traced run's report, per flight unless the name says
// otherwise. Layers a workload does not touch read 0.
var perLayer = append([]metricDef{
	{"sampling.samples_per_flight", "count"},
	{"operator.fly_ms", "ms"},
	{layerFix, "ms"},
	{layerTEESign, "ms"},
	{"tee.signs", "count"},
	{"tee.smc", "count"},
	{layerEncrypt, "ms"},
	{"operator.envelope_bytes", "B"},
	{layerQuerySign, "ms"},
	{layerHTTPTransit, "ms"},
	{"http.transit_ms_per_call", "ms"},
	{layerWireTransit, "ms"},
	{"wire.transit_ms_per_call", "ms"},
	{"http.bytes_up", "B"},
	{"http.bytes_down", "B"},
	{"wire.bytes_up", "B"},
	{"wire.bytes_down", "B"},
	{"wire.client_writes", "count"},
	{"wire.client_flushes", "count"},
	{"wire.server_frames", "count"},
	{"wire.acks", "count"},
	{"operator.retries", "count"},
	{"auditor.admission_shed", "count"},
	{"auditor.wal_errors", "count"},
	{"auditor.serve_ms_per_call", "ms"},
	{layerAuditorSelf, "ms"},
	{"auditor.self_ms_per_call", "ms"},
	{"sigcrypto.decrypt_ms", "ms"},
	{"poa.decode_ms", "ms"},
	{"auditor.replay_ms", "ms"},
	{"sigcrypto.verify_ms", "ms"},
	{"poa.chronology_ms", "ms"},
	{"poa.speed_ms", "ms"},
	{"poa.sufficiency_ms", "ms"},
	{"privacy.structure_ms", "ms"},
	{"privacy.predicates_ms", "ms"},
	{"auditor.retain_ms", "ms"},
	{"auditor.commit_ms", "ms"},
	{layerAccuseScan, "ms"},
	{layerAppend, "ms"},
	{"storage.append_ms_per_call", "ms"},
	{"storage.appends", "count"},
	{"storage.record_bytes", "B"},
	{"storage.fsyncs", "count"},
	{"storage.appends_per_fsync", "ratio"},
	{"storage.compactions", "count"},
	{"storage.compaction_ms", "ms"},
	{"storage.recover_ms_per_1k_records", "ms"},
	{"storage.recover_lost_flights", "count"},
	{"zone.query_ms", "ms"},
	{"zone.zones_per_query", "count"},
	{"runtime.allocs", "count"},
	{"runtime.alloc_bytes", "B"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.cpu_user_ms", "ms"},
	{"runtime.cpu_sys_ms", "ms"},
	{layerGlue, "ms"},
	{"obs.attributed_share", "ratio"},
	{"obs.trace_overhead_share", "ratio"},
	{"obs.cpu_speed", "ratio"},
}, unbounded...)

// value is one measured metric. Samples is how many observations stand
// behind a median or percentile (0 for ratios of totals). Raw is the same
// figure before the speed correction, where the two differ.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Raw     float64 `json:"raw,omitempty"`
}

// percentile is the nearest-rank p-quantile of sorted durations, in ms.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return ms(sorted[min(max(i, 0), len(sorted)-1)])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tally is a window's ops sorted out by kind, its times corrected to the
// reference CPU speed.
type tally struct {
	attempted, failed int
	flights           int // correctly judged flights
	seconds           float64
	speed             float64 // the CPU's mean speed over the window; 1 when uncorrected
	prove, verdict    []time.Duration
	accuse, query     []time.Duration
	samples, envelope int
}

// tally sorts the window's ops out. With a nil speedometer every time
// stays as measured.
func (w window) tally(stream bool, meter *speedometer) tally {
	t := tally{attempted: len(w.ops), seconds: w.to.at.Sub(w.from.at).Seconds(), speed: 1}
	if meter != nil {
		t.speed = meter.over(w.from.at, w.to.at)
	}
	for _, op := range w.ops {
		verdict := meter.corrected(timed{op.verdict, op.end})
		switch {
		case !op.ok:
			t.failed++
		case op.kind == opAccuse:
			t.accuse = append(t.accuse, verdict)
		case op.kind == opQuery:
			t.query = append(t.query, verdict)
		default:
			t.flights++
			t.prove = append(t.prove, meter.corrected(timed{op.prove, op.end.Add(-op.verdict)}))
			t.verdict = append(t.verdict, verdict)
			t.samples += op.samples
			t.envelope += op.envelope
		}
	}
	if stream {
		// No envelope, so no landing-to-verdict: the verdict a streaming
		// drone waits for is each sample's.
		t.verdict = t.verdict[:0]
		for _, rtt := range w.samples {
			t.verdict = append(t.verdict, meter.corrected(rtt))
		}
	}
	for _, ds := range [][]time.Duration{t.prove, t.verdict, t.accuse, t.query} {
		slices.Sort(ds)
	}
	return t
}

// endToEndMetrics folds an untraced window into the end-to-end report:
// every time at reference speed, with the raw reading beside it.
func endToEndMetrics(w window, t, raw tally, setupS, rawSetupS, rssMB float64, setups int) map[string]value {
	cpu := ms((w.to.cpuUser - w.from.cpuUser) + (w.to.cpuSys - w.from.cpuSys))
	fold := func(t tally, setupS float64) map[string]value {
		n := float64(t.flights)
		m := map[string]value{
			"setup_s":               {Value: setupS, Unit: "s", Samples: setups},
			"flights_per_s":         {Value: n / (t.seconds * t.speed), Unit: "1/s", Samples: t.flights},
			"verdict_p50_ms":        {Value: percentile(t.verdict, 0.5), Unit: "ms", Samples: len(t.verdict)},
			"prove_p50_ms":          {Value: percentile(t.prove, 0.5), Unit: "ms", Samples: len(t.prove)},
			"cpu_ms_per_flight":     {Value: cpu * t.speed / n, Unit: "ms", Samples: t.flights},
			"wire_bytes_per_flight": {Value: float64(w.bytes.total()) / float64(w.allAcked), Unit: "B", Samples: w.allAcked},
		}
		addUnbounded(m, t, rssMB)
		return m
	}
	m := fold(t, setupS)
	for name, r := range fold(raw, rawSetupS) {
		if v := m[name]; r.Value != v.Value {
			v.Raw = r.Value
			m[name] = v
		}
	}
	return m
}

func addUnbounded(m map[string]value, t tally, rssMB float64) {
	m["verdict_p90_ms"] = value{Value: percentile(t.verdict, 0.9), Unit: "ms", Samples: len(t.verdict)}
	m["peak_rss_mb"] = value{Value: rssMB, Unit: "MB"}
	m["failed_share"] = value{Value: float64(t.failed) / float64(max(t.attempted, 1)), Unit: "ratio", Samples: t.attempted}
	m["accuse_p50_ms"] = value{Value: percentile(t.accuse, 0.5), Unit: "ms", Samples: len(t.accuse)}
	m["accuse_p90_ms"] = value{Value: percentile(t.accuse, 0.9), Unit: "ms", Samples: len(t.accuse)}
	m["zonequery_p50_ms"] = value{Value: percentile(t.query, 0.5), Unit: "ms", Samples: len(t.query)}
	m["zonequery_p90_ms"] = value{Value: percentile(t.query, 0.9), Unit: "ms", Samples: len(t.query)}
}

// layerExtras are the traced run's measurements taken outside the window.
type layerExtras struct {
	recoverMS     float64 // at reference speed, as zoneQueryMS
	recoverLost   int
	totalAppends  float64
	zoneQueryMS   float64
	zonesPerQuery float64
	untracedFPS   float64
	rssMB         float64
}

// perLayerMetrics folds a traced window, its span trees and the program's
// own counters into the per-layer report.
func perLayerMetrics(w window, t tally, lr layerReport, x layerExtras) map[string]value {
	n := float64(max(t.flights, 1))
	m := make(map[string]value, len(perLayer))
	for _, def := range perLayer {
		m[def.Name] = value{Unit: def.Unit}
	}
	set := func(name string, v float64, samples int) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = value{Value: v, Unit: m[name].Unit, Samples: samples}
	}
	// Span and counter times are corrected with the window's mean speed:
	// one factor for all layers, so their shares stay as measured.
	msAt := func(ns int64) float64 { return float64(ns) / 1e6 * t.speed }
	perFlightMS := func(ns int64) float64 { return msAt(ns) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	delta := func(fam string) float64 { return w.to.counters[fam] - w.from.counters[fam] }

	// Self time by layer: every layer the trees booked time to is a metric.
	for layer, ns := range lr.layerNS {
		if _, ok := m[layer]; ok {
			set(layer, perFlightMS(ns), lr.ops)
		}
	}
	set("sampling.samples_per_flight", float64(t.samples)/n, t.flights)
	set("operator.fly_ms", perFlightMS(lr.spanNS[spanFly]), lr.spanCount[spanFly])
	set("operator.envelope_bytes", float64(t.envelope)/n, t.flights)
	set("tee.signs", float64(w.to.teeSigns-w.from.teeSigns)/n, t.flights)
	set("tee.smc", float64(w.to.teeSMC-w.from.teeSMC)/n, t.flights)
	set("http.transit_ms_per_call", ratio(msAt(lr.layerNS[layerHTTPTransit]), float64(lr.httpCalls)), lr.httpCalls)
	set("wire.transit_ms_per_call", ratio(msAt(lr.layerNS[layerWireTransit]), float64(lr.wireCalls)), lr.wireCalls)
	acked := float64(max(w.allAcked, 1)) // bytes are counted over the whole drive
	set("http.bytes_up", float64(w.bytes.httpUp)/acked, w.allAcked)
	set("http.bytes_down", float64(w.bytes.httpDown)/acked, w.allAcked)
	set("wire.bytes_up", float64(w.bytes.wireUp)/acked, w.allAcked)
	set("wire.bytes_down", float64(w.bytes.wireDown)/acked, w.allAcked)
	set("wire.client_writes", delta(famWireSubmits)/n, t.flights)
	set("wire.client_flushes", delta(famWireFlushes)/n, t.flights)
	set("wire.server_frames", delta(famWireFrames)/n, t.flights)
	set("wire.acks", delta(famWireAcks)/n, t.flights)
	set("operator.retries", delta(famRetries), 0)
	set("auditor.admission_shed", delta(famShed), 0)
	set("auditor.wal_errors", delta(famWALErrors), 0)
	serves := lr.spanCount[spanServe]
	set("auditor.serve_ms_per_call", ratio(msAt(lr.spanNS[spanServe]), float64(serves)), serves)
	set("auditor.self_ms_per_call", ratio(msAt(lr.layerNS[layerAuditorSelf]), float64(serves)), serves)
	appends := lr.spanCount[spanAppend]
	set("storage.append_ms_per_call", ratio(msAt(lr.layerNS[layerAppend]), float64(appends)), appends)
	set("storage.appends", delta(famAppends)/n, t.flights)
	set("storage.record_bytes", delta(famWALBytes)/n, t.flights)
	set("storage.fsyncs", delta(famFsyncs)/n, t.flights)
	set("storage.appends_per_fsync", ratio(delta(famAppends), delta(famFsyncs)), 0)
	set("storage.compactions", delta(famCompactions), 0)
	set("storage.compaction_ms", delta(famCompactionSum)*1e3*t.speed, 0)
	set("storage.recover_ms_per_1k_records", ratio(x.recoverMS, x.totalAppends/1e3), 1)
	set("storage.recover_lost_flights", float64(x.recoverLost), 0)
	set("zone.query_ms", x.zoneQueryMS, 0)
	set("zone.zones_per_query", x.zonesPerQuery, 0)
	set("runtime.allocs", float64(w.to.mallocs-w.from.mallocs)/n, t.flights)
	set("runtime.alloc_bytes", float64(w.to.allocated-w.from.allocated)/n, t.flights)
	set("runtime.gc_pause_ms_total", ms(w.to.gcPause-w.from.gcPause)*t.speed, 0)
	set("runtime.cpu_user_ms", ms(w.to.cpuUser-w.from.cpuUser)*t.speed/n, t.flights)
	set("runtime.cpu_sys_ms", ms(w.to.cpuSys-w.from.cpuSys)*t.speed/n, t.flights)
	set("obs.attributed_share", 1-ratio(float64(lr.layerNS[layerGlue]), float64(lr.opTimeNS)), lr.ops)
	set("obs.trace_overhead_share", 1-ratio(float64(t.flights)/(t.seconds*t.speed), x.untracedFPS), 0)
	set("obs.cpu_speed", t.speed, 0)
	addUnbounded(m, t, x.rssMB)
	return m
}

// printTable writes metrics in the given order, by name, with unit and
// the sample count behind each figure.
func printTable(out io.Writer, title string, defs []metricDef, m map[string]value, skipZero bool) {
	fmt.Fprintf(out, "%s\n", title)
	for _, def := range defs {
		v, ok := m[def.Name]
		switch {
		case !ok, skipZero && v.Value == 0 && v.Samples == 0:
			fmt.Fprintf(out, "  %-36s %14s %-6s\n", def.Name, "n/a", def.Unit)
		case v.Raw != 0:
			fmt.Fprintf(out, "  %-36s %14.4f %-6s n=%-7d raw %.4f\n", def.Name, v.Value, def.Unit, v.Samples, v.Raw)
		case v.Samples > 0:
			fmt.Fprintf(out, "  %-36s %14.4f %-6s n=%d\n", def.Name, v.Value, def.Unit, v.Samples)
		default:
			fmt.Fprintf(out, "  %-36s %14.4f %-6s\n", def.Name, v.Value, def.Unit)
		}
	}
}

// spreadLine summarises one metric over repeated sets against its bound.
func spreadLine(name string, xs []float64, bound float64) string {
	lo, med, hi := slices.Min(xs), median(xs), slices.Max(xs)
	spread := 0.0
	if med != 0 {
		spread = (hi - lo) / med
	}
	verdict := "within"
	if spread > bound {
		verdict = "OVER"
	}
	return fmt.Sprintf("  %-24s min %12.4f  median %12.4f  max %12.4f  spread %5.1f%%  bound %4.1f%%  %s",
		name, lo, med, hi, 100*spread, 100*bound, verdict)
}
