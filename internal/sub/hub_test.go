// White-box tests of the pieces that never touch a store: rule windowing,
// webhook delivery, and the policy parser.

package sub

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/ops"
	"repro/internal/query"
	"repro/internal/segment"
	"repro/internal/server"
)

func resultWithLabels(labels ...string) server.QueryResult {
	r := query.Result{}
	for _, l := range labels {
		r.Detections = append(r.Detections, ops.Detection{Label: l})
	}
	return server.QueryResult{Results: []query.Result{r}}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", PolicyDisconnect, true},
		{"disconnect", PolicyDisconnect, true},
		{"drop", PolicyDrop, true},
		{"block", PolicyDisconnect, false},
	} {
		got, err := ParsePolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if PolicyDrop.String() != "drop" || PolicyDisconnect.String() != "disconnect" {
		t.Fatal("Policy.String round-trip broken")
	}
}

// TestApplyRulesWindow drives the sliding window directly: a rule counting
// "car" over the last 2 chunks fires only once the window total crosses
// the threshold, and firings enqueue to the rule's webhook.
func TestApplyRulesWindow(t *testing.T) {
	var mu sync.Mutex
	var sent []Alert
	hooks := newWebhooks(webhookOptions{Sender: func(url string, body []byte) error {
		var a Alert
		if err := json.Unmarshal(body, &a); err != nil {
			t.Errorf("webhook body: %v", err)
			return err
		}
		mu.Lock()
		sent = append(sent, a)
		mu.Unlock()
		return nil
	}})
	defer hooks.close()

	s := &Subscription{
		id: "s1",
		req: Request{Stream: "cam", Rules: []Rule{
			{Label: "car", MinCount: 3, WindowSegments: 2, Webhook: "http://hooks.example/car"},
			{MinCount: 1, WindowSegments: 1}, // label-less: counts everything, no webhook
		}},
		hooks:   hooks,
		windows: [][]int{make([]int, 2), make([]int, 1)},
	}

	commit := func(idx int) segment.Commit {
		return segment.Commit{Stream: "cam", Idx: idx, Seq: int64(idx + 1)}
	}
	// Chunk 0: 2 cars + 1 truck. Rule 0 window total 2 < 3: silent.
	// Rule 1 counts all 3 detections: fires.
	alerts := s.applyRules(commit(0), resultWithLabels("car", "car", "truck"))
	if len(alerts) != 1 || alerts[0].Rule != 1 || alerts[0].Count != 3 {
		t.Fatalf("chunk 0 alerts = %+v", alerts)
	}
	// Chunk 1: 1 car. Rule 0 window total 2+1 = 3: fires with the window
	// total and this chunk's span.
	alerts = s.applyRules(commit(1), resultWithLabels("car"))
	if len(alerts) != 2 {
		t.Fatalf("chunk 1 alerts = %+v", alerts)
	}
	car := alerts[0]
	if car.Rule != 0 || car.Count != 3 || car.Label != "car" || car.WindowSegments != 2 ||
		car.Seg0 != 1 || car.Seg1 != 2 || car.Seq != 2 || car.SubID != "s1" || car.Stream != "cam" {
		t.Fatalf("car alert = %+v", car)
	}
	// Chunk 2: nothing. The 2-chunk window slides past chunk 0's cars
	// (total 1 < 3): rule 0 goes quiet again; rule 1 sees zero detections.
	if alerts = s.applyRules(commit(2), resultWithLabels()); len(alerts) != 0 {
		t.Fatalf("chunk 2 alerts = %+v", alerts)
	}
	if got := s.rulesFired.Load(); got != 3 {
		t.Fatalf("rulesFired = %d", got)
	}

	// Only rule 0 names a webhook: exactly its one firing is delivered.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(sent)
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("webhook deliveries = %d, want 1", n)
		}
		time.Sleep(time.Millisecond)
	}
	if sent[0] != car {
		t.Fatalf("webhook payload %+v, want %+v", sent[0], car)
	}
}

// TestWebhookRetry: a transiently failing endpoint is retried with backoff
// and eventually counted sent; a permanently failing one exhausts the
// attempt budget and is counted a failure.
func TestWebhookRetry(t *testing.T) {
	var calls int
	var mu sync.Mutex
	w := newWebhooks(webhookOptions{Backoff: time.Millisecond, Attempts: 4, Sender: func(url string, body []byte) error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls < 3 {
			return errors.New("endpoint down")
		}
		return nil
	}})
	w.enqueue("http://hooks.example/a", Alert{SubID: "s1"})
	waitStats(t, w, func(st WebhookStats) bool { return st.Sent == 1 })
	if st := w.stats(); st.Sent != 1 || st.Retries != 2 || st.Failures != 0 {
		t.Fatalf("stats after transient failure = %+v", st)
	}

	mu.Lock()
	calls = -1 << 30 // never recovers
	mu.Unlock()
	w.enqueue("http://hooks.example/b", Alert{SubID: "s1"})
	waitStats(t, w, func(st WebhookStats) bool { return st.Failures == 1 })
	if st := w.stats(); st.Sent != 1 || st.Retries != 2+3 || st.Failures != 1 {
		t.Fatalf("stats after permanent failure = %+v", st)
	}
	w.close()
}

// TestWebhookOverflowAndClose: enqueue never blocks — overflow beyond the
// bounded queue is counted as failures — and close abandons what is still
// queued rather than waiting out retry backoffs.
func TestWebhookOverflowAndClose(t *testing.T) {
	block := make(chan struct{})
	w := newWebhooks(webhookOptions{Queue: 1, Attempts: 1, Sender: func(url string, body []byte) error {
		<-block
		return nil
	}})
	// First delivery occupies the worker, second fills the queue; the rest
	// must overflow without blocking this goroutine.
	for i := 0; i < 5; i++ {
		w.enqueue("http://hooks.example/x", Alert{})
	}
	waitStats(t, w, func(st WebhookStats) bool { return st.Failures >= 3 })
	close(block)
	w.close()
	st := w.stats()
	if st.Sent+st.Failures != 5 {
		t.Fatalf("deliveries unaccounted for: %+v", st)
	}
	// close is idempotent.
	w.close()
}

func waitStats(t *testing.T, w *webhooks, ok func(WebhookStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok(w.stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("webhook stats never converged: %+v", w.stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWebhookBackoffCapped: with a deep attempt budget, the doubling
// backoff must saturate at MaxBackoff rather than growing geometrically.
// Uncapped, this schedule (10ms base, 10 attempts) would sleep
// 10+20+40+...+2560ms ≈ 5.1s; capped at 20ms it sleeps 170ms total.
func TestWebhookBackoffCapped(t *testing.T) {
	w := newWebhooks(webhookOptions{
		Backoff:    10 * time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
		Attempts:   10,
		Sender:     func(url string, body []byte) error { return errors.New("endpoint down") },
	})
	defer w.close()
	start := time.Now()
	w.enqueue("http://hooks.example/a", Alert{SubID: "s1"})
	waitStats(t, w, func(st WebhookStats) bool { return st.Failures == 1 })
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("capped backoff schedule took %v; doubling was not capped", elapsed)
	}
	if st := w.stats(); st.Retries != 9 || st.Sent != 0 {
		t.Fatalf("stats after exhausted budget = %+v", st)
	}
}

// TestWebhookCloseDuringBackoff: a close landing while the dispatcher is
// asleep between attempts must return promptly — the backoff timer is
// stopped, not waited out — and the interrupted delivery counts failed.
func TestWebhookCloseDuringBackoff(t *testing.T) {
	w := newWebhooks(webhookOptions{
		Backoff:  time.Hour, // the test only passes if close interrupts this sleep
		Attempts: 3,
		Sender:   func(url string, body []byte) error { return errors.New("endpoint down") },
	})
	w.enqueue("http://hooks.example/a", Alert{SubID: "s1"})
	// Retries increments before the sleep, so Retries==1 means the worker
	// is inside the hour-long backoff.
	waitStats(t, w, func(st WebhookStats) bool { return st.Retries == 1 })
	start := time.Now()
	w.close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("close during backoff took %v; timer not interrupted", elapsed)
	}
	if st := w.stats(); st.Failures != 1 || st.Sent != 0 {
		t.Fatalf("stats after interrupted delivery = %+v", st)
	}
}
