package api_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/tenant"
	"repro/internal/vidsim"
)

// twoTenantRegistry gives "hot" and "cold" equal-weight tenants behind
// separate API keys.
func twoTenantRegistry() *tenant.Registry {
	return tenant.NewRegistry(
		[]core.TenantQuota{{Name: "hot"}, {Name: "cold"}},
		map[string]string{"k-hot": "hot", "k-cold": "cold"},
	)
}

// TestGateFairnessAcrossTenants is the starvation regression at the HTTP
// level: a hot tenant holds the only execution slot AND has filled its
// whole waiting room, and a cold tenant's query must still be admitted
// and answered. The pre-multi-tenant global FIFO gate fails this test —
// its single shared queue was full of hot requests, so the cold tenant
// was answered 429 at the door.
func TestGateFairnessAcrossTenants(t *testing.T) {
	srv, cl := startAPI(t, api.Limits{MaxInFlight: 1, MaxQueue: 2, Tenants: twoTenantRegistry()})
	srv.SetCacheBudget(0)
	ctx := context.Background()
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srv.Ingest(sc, "cam", 2); err != nil {
		t.Fatal(err)
	}
	hot := api.NewClient(cl.BaseURL)
	hot.APIKey = "k-hot"
	cold := api.NewClient(cl.BaseURL)
	cold.APIKey = "k-cold"

	// waitHot polls /v1/stats until hot's gate state is reached: the gate
	// grants and parks after arrival, so each step is awaited, not slept
	// for (the holder's ingest lasts only about 100 ms).
	waitHot := func(what string, want tenant.GateTenantStats) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			st, err := cl.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got := st.Tenants["hot"].Gate; got == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("never observed: %s (last gate %+v)", what, st.Tenants["hot"].Gate)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Hot occupies the slot with a long ingest...
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := hot.Ingest(ctx, api.IngestRequest{Stream: "cam", Scene: "jackson", Segments: 4}); err != nil {
			t.Errorf("hot holder: %v", err)
		}
	}()
	waitHot("the ingest holding the slot", tenant.GateTenantStats{InFlight: 1})

	// ...and fills its whole waiting room with queries.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := hot.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery}); err != nil {
				t.Errorf("hot queued query: %v", err)
			}
		}()
	}
	waitHot("both queries parked", tenant.GateTenantStats{InFlight: 1, Queued: 2})

	// Hot's own overflow is rejected — its queue really is full.
	if _, _, err := hot.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery}); !api.IsRejected(err) {
		t.Fatalf("hot overflow answered %v, want 429", err)
	}

	// The cold tenant, arriving dead last, is still admitted and served:
	// it queues in its own lane and the fair dispatcher grants it within
	// its equal share. The global FIFO answered 429 here.
	if _, _, err := cold.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery}); err != nil {
		t.Fatalf("cold tenant starved: %v", err)
	}
	wg.Wait()

	// The per-tenant accounting saw all of it.
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenants["cold"].Window.OK < 1 {
		t.Fatalf("cold tenant window = %+v, want >= 1 ok", st.Tenants["cold"].Window)
	}
	if st.Tenants["hot"].Window.Rejected < 1 {
		t.Fatalf("hot tenant window = %+v, want >= 1 rejection", st.Tenants["hot"].Window)
	}
}

// TestUnknownAPIKeyUnauthorized: a key no tenant owns is answered 401 and
// counted; it never reaches the gate.
func TestUnknownAPIKeyUnauthorized(t *testing.T) {
	_, cl := startAPI(t, api.Limits{Tenants: twoTenantRegistry()})
	bad := api.NewClient(cl.BaseURL)
	bad.APIKey = "k-nobody"
	_, err := bad.Stats(context.Background())
	se := new(api.StatusError)
	if !errors.As(err, &se) || se.Code != http.StatusUnauthorized {
		t.Fatalf("unknown key answered %v, want 401", err)
	}
	// Bearer form resolves the same way.
	req, _ := http.NewRequest(http.MethodGet, cl.BaseURL+"/v1/stats", nil)
	req.Header.Set("Authorization", "Bearer k-hot")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bearer key answered %d, want 200", resp.StatusCode)
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.API["stats"].Unauthorized != 1 {
		t.Fatalf("unauthorized count = %d, want 1", st.API["stats"].Unauthorized)
	}
}

// TestTenantRateQuota: an exhausted per-tenant rate quota answers the
// workload endpoints (query, ingest) 429 with a Retry-After, without the
// request ever occupying a gate slot. Read-only admin endpoints (stats,
// streams) stay free — a throttled tenant may still watch its counters.
func TestTenantRateQuota(t *testing.T) {
	reg := tenant.NewRegistry(
		[]core.TenantQuota{{Name: "limited", RatePerSec: 0.001, Burst: 1}},
		map[string]string{"k-lim": "limited"},
	)
	_, cl := startAPI(t, api.Limits{Tenants: reg})
	lim := api.NewClient(cl.BaseURL)
	lim.APIKey = "k-lim"
	ctx := context.Background()
	q := api.QueryRequest{Stream: "cam", Query: testQuery}
	if _, _, err := lim.Query(ctx, q); err != nil {
		t.Fatalf("first request within burst: %v", err)
	}
	_, _, err := lim.Query(ctx, q)
	if !api.IsRejected(err) {
		t.Fatalf("over-quota request answered %v, want 429", err)
	}
	se := new(api.StatusError)
	if !errors.As(err, &se) || se.RetryAfter < time.Second {
		t.Fatalf("quota rejection Retry-After = %+v, want >= 1s", se)
	}
	// Admin reads are not admitted through the quota.
	if _, err := lim.Streams(ctx); err != nil {
		t.Fatalf("throttled tenant's stats read: %v", err)
	}
	// The keyless tenant is untouched by the limited tenant's quota.
	if _, _, err := cl.Query(ctx, q); err != nil {
		t.Fatalf("keyless request: %v", err)
	}
}

// TestDrainUnavailableCounted is the drain-accounting regression: 503s
// answered while draining used to return before the request counter, so
// a drain looked like silence instead of refused traffic.
func TestDrainUnavailableCounted(t *testing.T) {
	srv, err := server.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Reconfigure(testConfig(t)); err != nil {
		t.Fatal(err)
	}
	as := api.New(srv, api.Limits{})
	// No Start: drive the handler directly so requests can be issued
	// after Shutdown put the server in its draining state.
	if err := as.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	as.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"stream":"cam"}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining query answered %d, want 503", rec.Code)
	}
	m := as.Metrics()
	if m["query"].Requests != 1 || m["query"].Unavailable != 1 {
		t.Fatalf("drain accounting = %+v, want requests=1 unavailable=1", m["query"])
	}
	// healthz still answers, and reports the drain.
	rec = httptest.NewRecorder()
	as.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"draining":true`) {
		t.Fatalf("draining healthz = %d %q", rec.Code, rec.Body.String())
	}
	// /metrics stays scrapable through the drain.
	rec = httptest.NewRecorder()
	as.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("draining metrics answered %d, want 200", rec.Code)
	}
}

// TestClientAbortCounted is the vanished-client regression: a request
// whose client disconnects while parked in the admission gate used to be
// recorded as a 200 (the countingWriter's default status) and its park
// time dragged the latency averages. It must count as a client abort and
// stay out of the latency summary.
func TestClientAbortCounted(t *testing.T) {
	srv, cl := startAPI(t, api.Limits{MaxInFlight: 1, MaxQueue: 2})
	srv.SetCacheBudget(0)
	ctx := context.Background()
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srv.Ingest(sc, "cam", 2); err != nil {
		t.Fatal(err)
	}

	// Occupy the slot with an ingest, so the query endpoint's counters
	// see nothing but the abort. The batch must be big enough to hold the
	// slot well past the cancel below even on a fast machine — if the slot
	// frees first, the parked query runs to completion and no abort ever
	// happens.
	holderDone := make(chan error, 1)
	go func() {
		_, err := cl.Ingest(ctx, api.IngestRequest{Stream: "cam", Scene: "jackson", Segments: 32})
		holderDone <- err
	}()
	waitEndpointInFlight(t, cl, "ingest", 1)
	time.Sleep(50 * time.Millisecond)

	// Park a query in the gate, then vanish.
	qctx, cancel := context.WithCancel(ctx)
	aborted := make(chan error, 1)
	go func() {
		_, _, err := cl.Query(qctx, api.QueryRequest{Stream: "cam", Query: testQuery})
		aborted <- err
	}()
	waitEndpointInFlight(t, cl, "query", 1)
	time.Sleep(300 * time.Millisecond) // let the park time accumulate
	cancel()
	if err := <-aborted; !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted query returned %v", err)
	}
	// Checked while the ingest still holds the slot: the abort is counted
	// when the parked handler returns, and the tenant window only keeps
	// the trailing 60 s, which a slow host's ingest can outlast.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		q := st.API["query"]
		if q.ClientAborts == 1 {
			if q.Requests != 1 || q.Errors != 0 || q.Rejections != 0 {
				t.Fatalf("abort misclassified: %+v", q)
			}
			// The ~300ms park must not appear in the latency summary:
			// no query was answered, so both are zero.
			if q.AvgMs != 0 || q.MaxMs != 0 {
				t.Fatalf("abort leaked into latency: %+v", q)
			}
			if st.Tenants["default"].Window.Aborted != 1 {
				t.Fatalf("tenant window = %+v, want 1 abort", st.Tenants["default"].Window)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client abort never counted: %+v", q)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := <-holderDone; err != nil {
		t.Fatalf("slot holder: %v", err)
	}
}

func waitEndpointInFlight(t *testing.T, cl *api.Client, endpoint string, n int64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := cl.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.API[endpoint].InFlight >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d in-flight", endpoint, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueryAccuracyValidation: a target accuracy outside [0, 1] is a 400,
// not a silently skewed cascade.
func TestQueryAccuracyValidation(t *testing.T) {
	srv, cl := startAPI(t, api.Limits{})
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srv.Ingest(sc, "cam", 1); err != nil {
		t.Fatal(err)
	}
	for _, acc := range []float64{-0.5, 1.5} {
		_, _, err := cl.Query(context.Background(), api.QueryRequest{Stream: "cam", Query: testQuery, Accuracy: acc})
		se := new(api.StatusError)
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Fatalf("accuracy %v answered %v, want 400", acc, err)
		}
	}
	// An in-range accuracy still passes validation.
	if _, _, err := cl.Query(context.Background(), api.QueryRequest{Stream: "cam", Query: testQuery, Accuracy: 0.9}); err != nil {
		t.Fatalf("accuracy 0.9 rejected: %v", err)
	}
}

// TestPrometheusExposition: GET /metrics answers the text format with the
// per-tenant counters, the wait histogram, and the gate gauges.
func TestPrometheusExposition(t *testing.T) {
	srv, cl := startAPI(t, api.Limits{Tenants: twoTenantRegistry()})
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srv.Ingest(sc, "cam", 1); err != nil {
		t.Fatal(err)
	}
	hot := api.NewClient(cl.BaseURL)
	hot.APIKey = "k-hot"
	if _, _, err := hot.Query(context.Background(), api.QueryRequest{Stream: "cam", Query: testQuery}); err != nil {
		t.Fatal(err)
	}
	// route settles a request's tenant accounting after its response is
	// flushed, so the scrape is repeated until the query above is counted.
	var text string
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(cl.BaseURL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics answered %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("metrics content type %q", ct)
		}
		text = string(body)
		if strings.Contains(text, `vstore_tenant_requests_total{tenant="hot"} 1`) || time.Now().After(deadline) {
			break
		}
	}
	for _, want := range []string{
		"# TYPE vstore_tenant_requests_total counter",
		`vstore_tenant_requests_total{tenant="hot"} 1`,
		`vstore_tenant_ok_total{tenant="hot"} 1`,
		`vstore_tenant_requests_total{tenant="cold"} 0`,
		"# TYPE vstore_tenant_admission_wait_seconds histogram",
		`vstore_tenant_admission_wait_seconds_bucket{tenant="hot",le="+Inf"} 1`,
		"# TYPE vstore_gate_capacity gauge",
		`vstore_endpoint_requests_total{endpoint="query"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
