// Package store holds the value types of one query evaluation: the
// request (stream, cascade name, accuracy, segment range) and its result,
// the per-epoch span results merged in segment order. server.QueryResult
// aliases Result, so a standing query's push and a one-shot query's answer
// are one type.
package store

import (
	"repro/internal/ops"
	"repro/internal/query"
)

// Request names one query evaluation: the cascade (by name, resolved
// through query.ByName, where "" selects Query A), the target accuracy
// (zero selects query.DefaultAccuracy), and the segment range [Seg0, Seg1)
// of the stream.
type Request struct {
	Stream   string
	Query    string
	Accuracy float64
	Seg0     int
	Seg1     int
}

// Result is a query's outcome: per-epoch span results merged in segment
// order.
type Result struct {
	Results []query.Result
}

// Speed returns the overall query speed across spans.
func (r Result) Speed() float64 {
	var vid, sec float64
	for _, one := range r.Results {
		vid += one.VideoSeconds
		sec += one.VirtualSeconds
	}
	if sec <= 0 {
		return 0
	}
	return vid / sec
}

// Detections returns every span's final-stage detections in segment
// order.
func (r Result) Detections() []ops.Detection {
	var out []ops.Detection
	for _, one := range r.Results {
		out = append(out, one.Detections...)
	}
	return out
}
