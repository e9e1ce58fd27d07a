// Standing-query endpoints: POST /v1/subscribe holds a long-lived
// chunked-NDJSON connection pushing one chunk per committed segment of the
// subscribed stream, POST /v1/unsubscribe ends a subscription by ID, and
// GET /v1/subs lists the live ones. See internal/sub for the evaluation
// machinery; the handler here only translates pushes to wire lines.

package api

import (
	"errors"
	"net/http"
	"strings"
	"time"

	"repro/internal/sub"
)

// handleSubscribe registers a standing query and streams its pushes until
// the client disconnects, unsubscribes, lags out, or the server drains.
// Subscriptions are admitted against the dedicated MaxSubscriptions
// budget (429 on overflow), not the per-request gate: they are long-lived
// and must not starve one-shot queries of execution slots.
func (s *Server) handleSubscribe(w *Response, r *http.Request) {
	var req SubscribeRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	if req.Stream == "" {
		http.Error(w, "missing stream", http.StatusBadRequest)
		return
	}
	policy, err := sub.ParsePolicy(req.Policy)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	for _, rs := range req.Rules {
		if rs.Webhook != "" && !strings.HasPrefix(rs.Webhook, "http://") && !strings.HasPrefix(rs.Webhook, "https://") {
			http.Error(w, "rule webhook must be an http(s) URL", http.StatusBadRequest)
			return
		}
	}

	sn, err := s.hub.Subscribe(sub.Request{
		Stream:   req.Stream,
		Query:    req.Query,
		Accuracy: req.Accuracy,
		Buffer:   req.Buffer,
		Policy:   policy,
		Rules:    req.Rules,
	})
	switch {
	case errors.Is(err, sub.ErrLimit):
		// The subscription budget has no load signal; hint the 1s floor.
		s.reject(w, time.Second, "server saturated: subscription limit reached")
		return
	case errors.Is(err, sub.ErrClosed):
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Always detach on return: a vanished client must stop its evaluator
	// promptly, not when the hub next drains. Idempotent for the paths
	// that already ended the subscription.
	defer s.hub.Unsubscribe(sn.ID())

	w.Line(SubLine{Ack: &SubAck{ID: sn.ID(), Stream: req.Stream}})

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			// Client gone; nothing left to write.
			return
		case p, ok := <-sn.Out():
			if !ok {
				st := sn.Stats()
				summary := SubSummary{Delivered: st.Delivered, Dropped: st.Dropped}
				switch endErr := sn.Err(); {
				case endErr == nil:
					summary.Reason = "unsubscribed"
					w.Line(SubLine{Done: &summary})
				case errors.Is(endErr, sub.ErrClosed):
					summary.Reason = "draining"
					w.Line(SubLine{Done: &summary})
				case errors.Is(endErr, sub.ErrLagged):
					// Client-caused: in-band error, but not a server error
					// for the metrics.
					w.Line(SubLine{Error: endErr.Error()})
				default:
					w.MidStreamErr = true
					w.Line(SubLine{Error: endErr.Error()})
				}
				return
			}
			c := ChunkFromResult(p.Seg0, p.Seg1, p.Result)
			if !w.Line(SubLine{Seq: p.Seq, Dropped: p.Dropped, Chunk: &c}) {
				return
			}
			for i := range p.Alerts {
				w.Line(SubLine{Seq: p.Seq, Alert: &p.Alerts[i]})
			}
		}
	}
}

// handleUnsubscribe ends one subscription by ID; its connection receives
// the "unsubscribed" trailer.
func (s *Server) handleUnsubscribe(w *Response, r *http.Request) {
	var req UnsubscribeRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	if req.ID == "" {
		http.Error(w, "missing id", http.StatusBadRequest)
		return
	}
	WriteJSON(w, http.StatusOK, UnsubscribeResponse{Found: s.hub.Unsubscribe(req.ID)})
}

// handleSubs lists the live subscriptions with their counters.
func (s *Server) handleSubs(w *Response, r *http.Request) {
	st := s.hub.Stats()
	resp := SubsResponse{Active: st.Active, Subs: st.Subs}
	if resp.Subs == nil {
		resp.Subs = []sub.Stats{}
	}
	WriteJSON(w, http.StatusOK, resp)
}
