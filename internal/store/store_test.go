package store

import (
	"slices"
	"testing"

	"repro/internal/ops"
	"repro/internal/query"
)

// TestResultSpeed: speed is video seconds over virtual seconds summed
// across spans, and a result with no virtual time (warm hits, empty
// ranges) reports 0 instead of dividing by it.
func TestResultSpeed(t *testing.T) {
	for _, c := range []struct {
		name string
		res  Result
		want float64
	}{
		{"empty", Result{}, 0},
		{"no virtual time", Result{Results: []query.Result{{VideoSeconds: 8}, {VideoSeconds: 8}}}, 0},
		{"two spans", Result{Results: []query.Result{
			{VideoSeconds: 8, VirtualSeconds: 1},
			{VideoSeconds: 16, VirtualSeconds: 3},
		}}, 6},
	} {
		if got := c.res.Speed(); got != c.want {
			t.Errorf("%s: Speed() = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestResultDetections: detections come out span by span in segment
// order, each span's in its own order.
func TestResultDetections(t *testing.T) {
	d := func(pts int) ops.Detection { return ops.Detection{PTS: pts, Label: "car"} }
	res := Result{Results: []query.Result{
		{Detections: []ops.Detection{d(3), d(1)}},
		{},
		{Detections: []ops.Detection{d(0)}},
	}}
	if got, want := res.Detections(), []ops.Detection{d(3), d(1), d(0)}; !slices.Equal(got, want) {
		t.Fatalf("Detections() = %v, want %v", got, want)
	}
	if got := (Result{}).Detections(); len(got) != 0 {
		t.Fatalf("empty result's Detections() = %v", got)
	}
}
