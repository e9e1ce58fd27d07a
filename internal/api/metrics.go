// GET /metrics on a node: the tenants' cumulative totals, the gate's live
// snapshot, the admission-wait histogram from each tenant's cumulative
// power-of-two bucket counts, the self-healing counters and the shell's
// per-endpoint counter sets, written through the shell's Exposition.

package api

import (
	"net/http"
	"strconv"

	"repro/internal/tenant"
)

func (s *Server) handleMetrics(w *Response, r *http.Request) {
	var e Exposition
	tenants := s.tenants.Tenants()

	// Per-tenant cumulative counters.
	for _, c := range []struct {
		name, help string
		value      func(tenant.Totals) float64
	}{
		{"vstore_tenant_requests_total", "Requests received, by tenant.",
			func(t tenant.Totals) float64 { return float64(t.Requests) }},
		{"vstore_tenant_ok_total", "Requests admitted and answered successfully, by tenant.",
			func(t tenant.Totals) float64 { return float64(t.OK) }},
		{"vstore_tenant_rejected_total", "Admission rejections (429): queue overflow or quota, by tenant.",
			func(t tenant.Totals) float64 { return float64(t.Rejected) }},
		{"vstore_tenant_client_aborts_total", "Requests whose client vanished before admission, by tenant.",
			func(t tenant.Totals) float64 { return float64(t.Aborted) }},
		{"vstore_tenant_errors_total", "Requests admitted but failed server-side, by tenant.",
			func(t tenant.Totals) float64 { return float64(t.Errors) }},
		{"vstore_tenant_bytes_total", "Bytes charged against the tenant: responses plus ingested segments.",
			func(t tenant.Totals) float64 { return float64(t.Bytes) }},
		{"vstore_tenant_latency_seconds_total", "Summed latency of answered requests, by tenant.",
			func(t tenant.Totals) float64 { return float64(t.LatencyNs) / 1e9 }},
	} {
		e.Head(c.name, "counter", c.help)
		for _, tn := range tenants {
			e.Sample(c.name, Label("tenant", tn.Name()), c.value(tn.Totals()))
		}
	}

	// Admission-wait histogram, per tenant: cumulative le-buckets over the
	// shared power-of-two bounds, in seconds.
	const wait = "vstore_tenant_admission_wait_seconds"
	e.Head(wait, "histogram", "Time admitted requests waited in the fair gate, by tenant.")
	for _, tn := range tenants {
		name := Label("tenant", tn.Name())
		hist := tn.WaitHist()
		var cum int64
		for i, bound := range tenant.WaitBucketBoundsMs {
			cum += hist[i]
			e.Sample(wait+"_bucket", name+","+Label("le", strconv.FormatFloat(bound/1000, 'g', -1, 64)), float64(cum))
		}
		cum += hist[len(hist)-1]
		e.Sample(wait+"_bucket", name+","+Label("le", "+Inf"), float64(cum))
		e.Sample(wait+"_sum", name, float64(tn.Totals().WaitNs)/1e9)
		e.Sample(wait+"_count", name, float64(cum))
	}

	// Live gate state.
	gateStats, inFlight, queued := s.gate.Snapshot()
	e.Head("vstore_gate_in_flight", "gauge", "Requests holding an execution slot, by tenant.")
	for _, tn := range tenants {
		e.Sample("vstore_gate_in_flight", Label("tenant", tn.Name()), float64(gateStats[tn.Name()].InFlight))
	}
	e.Head("vstore_gate_queued", "gauge", "Requests parked in the fair gate, by tenant.")
	for _, tn := range tenants {
		e.Sample("vstore_gate_queued", Label("tenant", tn.Name()), float64(gateStats[tn.Name()].Queued))
	}
	e.Value("vstore_gate_capacity", "gauge", "Gate-wide concurrent execution slots.", float64(s.gate.Capacity()))
	e.Value("vstore_gate_total_in_flight", "gauge", "Execution slots currently held, all tenants.", float64(inFlight))
	e.Value("vstore_gate_total_queued", "gauge", "Requests currently parked, all tenants.", float64(queued))

	// Self-healing: corruption found on the read path, degraded fallback
	// serves, and the repair machinery's progress.
	st := s.store.Stats()
	e.Value("vstore_corrupt_reads_total", "counter", "Reads whose CRC failure survived a re-read.", float64(st.CorruptReads))
	e.Value("vstore_transient_reads_total", "counter", "CRC failures that cleared on re-read (read-path corruption).", float64(st.TransientReads))
	e.Value("vstore_degraded_serves_total", "counter", "Queries answered from a fallback replica.", float64(st.DegradedServes))
	e.Value("vstore_repairs_total", "counter", "Damaged replicas re-derived successfully.", float64(st.Repairs))
	e.Value("vstore_repairs_failed_total", "counter", "Repair attempts that could not complete.", float64(st.RepairsFailed))
	e.Value("vstore_scrub_passes_total", "counter", "Self-healing scrub passes completed.", float64(st.ScrubPasses))
	e.Value("vstore_repair_pending", "gauge", "Damaged replicas queued for background repair.", float64(st.RepairPending))

	e.Endpoints("vstore_endpoint", s.Metrics())
	e.Send(w)
}
