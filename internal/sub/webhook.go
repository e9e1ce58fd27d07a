// Webhook delivery for rule alerts: buffered behind a bounded queue so a
// slow or dead endpoint never stalls an evaluator, retried with
// exponential backoff so a transient endpoint failure loses nothing, and
// bounded in attempts so a permanently dead endpoint only burns a counter.

package sub

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// webhookOptions tunes alert delivery. The hub uses the zero value, which
// selects working defaults; tests shorten the schedule and inject Sender.
type webhookOptions struct {
	// Queue bounds deliveries waiting for the dispatcher; overflow is
	// dropped and counted as a failure. Zero selects 256.
	Queue int
	// Attempts is the per-delivery try budget. Zero selects 4.
	Attempts int
	// Backoff is the delay before the first retry; it doubles per
	// attempt, capped at MaxBackoff. Zero selects 250ms.
	Backoff time.Duration
	// MaxBackoff caps the doubling: with a large Attempts budget the
	// uncapped double would grow the sleep geometrically (attempt 12 of a
	// 250ms base waits over eight minutes) and pin the single dispatcher
	// worker behind one dead endpoint. Zero selects 2s — above every sleep
	// the default (4-attempt, 250ms) schedule produces, so capping does not
	// change default behaviour.
	MaxBackoff time.Duration
	// Timeout caps one HTTP attempt. Zero selects 5s.
	Timeout time.Duration
	// Sender overrides the HTTP POST — tests inject failures and capture
	// payloads here. It must return nil only on successful delivery.
	Sender func(url string, body []byte) error
}

func (o webhookOptions) withDefaults() webhookOptions {
	if o.Queue <= 0 {
		o.Queue = 256
	}
	if o.Attempts <= 0 {
		o.Attempts = 4
	}
	if o.Backoff <= 0 {
		o.Backoff = 250 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.Backoff > o.MaxBackoff {
		o.Backoff = o.MaxBackoff
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	return o
}

// WebhookStats reports the dispatcher's lifetime counters.
type WebhookStats struct {
	Sent     int64 // deliveries acknowledged by the endpoint
	Retries  int64 // attempts beyond each delivery's first
	Failures int64 // deliveries abandoned: attempts exhausted or queue full
}

type delivery struct {
	url   string
	alert Alert
}

// webhooks is the hub's alert dispatcher: one worker goroutine draining a
// bounded queue.
type webhooks struct {
	opt  webhookOptions
	ch   chan delivery
	quit chan struct{}
	done chan struct{}

	sent     atomic.Int64
	retries  atomic.Int64
	failures atomic.Int64
}

func newWebhooks(opt webhookOptions) *webhooks {
	w := &webhooks{
		opt:  opt.withDefaults(),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	w.ch = make(chan delivery, w.opt.Queue)
	if w.opt.Sender == nil {
		client := &http.Client{Timeout: w.opt.Timeout}
		w.opt.Sender = func(url string, body []byte) error {
			resp, err := client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode < 200 || resp.StatusCode >= 300 {
				return fmt.Errorf("webhook: endpoint answered HTTP %d", resp.StatusCode)
			}
			return nil
		}
	}
	go w.loop()
	return w
}

// enqueue is the evaluator-side handoff: non-blocking, overflow counted
// as a failure — an alert flood must not stall chunk pushes.
func (w *webhooks) enqueue(url string, a Alert) {
	select {
	case w.ch <- delivery{url: url, alert: a}:
	default:
		w.failures.Add(1)
	}
}

func (w *webhooks) loop() {
	defer close(w.done)
	for {
		select {
		case <-w.quit:
			return
		case d := <-w.ch:
			w.deliver(d)
		}
	}
}

// deliver POSTs one alert, retrying with doubling backoff (capped at
// MaxBackoff) until the try budget is spent. A hub close aborts between
// attempts, never mid-POST; the backoff timer is stopped on that path, so
// an aborted sleep releases its timer immediately instead of leaving it
// pending until it would have fired.
func (w *webhooks) deliver(d delivery) {
	body, err := json.Marshal(d.alert)
	if err != nil {
		w.failures.Add(1)
		return
	}
	backoff := w.opt.Backoff
	for attempt := 0; attempt < w.opt.Attempts; attempt++ {
		if attempt > 0 {
			w.retries.Add(1)
			t := time.NewTimer(backoff)
			select {
			case <-w.quit:
				t.Stop()
				w.failures.Add(1)
				return
			case <-t.C:
			}
			if backoff *= 2; backoff > w.opt.MaxBackoff {
				backoff = w.opt.MaxBackoff
			}
		}
		if err := w.opt.Sender(d.url, body); err == nil {
			w.sent.Add(1)
			return
		}
	}
	w.failures.Add(1)
}

func (w *webhooks) stats() WebhookStats {
	return WebhookStats{
		Sent:     w.sent.Load(),
		Retries:  w.retries.Load(),
		Failures: w.failures.Load(),
	}
}

// close stops the dispatcher after its in-flight delivery attempt;
// queued deliveries are abandoned (counted as failures).
func (w *webhooks) close() {
	select {
	case <-w.quit:
	default:
		close(w.quit)
	}
	<-w.done
	for {
		select {
		case <-w.ch:
			w.failures.Add(1)
		default:
			return
		}
	}
}
