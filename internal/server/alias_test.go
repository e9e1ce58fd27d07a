// Aliasing-safety suite for materialized results: a hit is served from the
// decoded entry the results store holds, so a range-path answer shares its
// slices with the store. The contract is that a fill is private (the store
// keeps its own copy) and a hit is read-only but safe to append to (the
// store's copy is clipped, so an append always reallocates). Run under
// -race via the repo's race job.
package server

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ops"
	"repro/internal/query"
)

// scribbleAnswers overwrites every detection and consumed frame of a query
// answer in place.
func scribbleAnswers(res QueryResult) {
	for _, r := range res.Results {
		for i := range r.Detections {
			r.Detections[i] = ops.Detection{PTS: -1, Label: "scribbled", X: -1, Y: -1}
		}
		for i := range r.FinalPTS {
			r.FinalPTS[i] = -1
		}
	}
}

// appendToAnswers appends to every detection and frame list of a query
// answer, as a holder extending its answer would, then scribbles over what
// the append returned: were the append to share the answer's backing array,
// the scribble would land on it.
func appendToAnswers(res QueryResult) {
	for _, r := range res.Results {
		dets := append(r.Detections, ops.Detection{Label: "appended"})
		pts := append(r.FinalPTS, -1)
		scribbleAnswers(QueryResult{Results: []query.Result{{Detections: dets, FinalPTS: pts}}})
	}
}

var errAnswerChanged = errors.New("a materialized answer differs from the recomputed reference")

// TestMaterializedAnswersDoNotAlias scribbles over the answers of the query
// that fills the results store, then has concurrent holders of hits append
// to theirs while others read, on the per-segment path (Query A, whose final
// NN stage materializes per segment) and on the range path (a lone Diff
// stage, stateful, so each two-segment epoch span materializes as one range
// entry). Re-querying must then be byte-identical to recomputing with the
// results store off.
func TestMaterializedAnswersDoNotAlias(t *testing.T) {
	s := setupQueryServer(t)
	for _, c := range []struct {
		name    string
		cascade query.Cascade
		ops     []string
	}{
		{"per-segment", query.QueryA(), []string{"Diff", "S-NN", "NN"}},
		{"range", query.Cascade{Name: "Diff", Stages: []query.Stage{{Op: ops.Diff{}}}}, []string{"Diff"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func() (QueryResult, error) {
				return s.Query(context.Background(), "cam", c.cascade, c.ops, 0.9, 0, 4)
			}
			s.SetResultsBudget(-1)
			ref, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if len(normalizedResults(ref)[0].Detections) == 0 {
				t.Fatal("the reference detects nothing; the test would prove nothing")
			}

			s.SetResultsBudget(1 << 22)
			defer s.SetResultsBudget(-1)
			fill, err := run()
			if err != nil {
				t.Fatal(err)
			}
			mustIdentical(t, fill, ref, "fill")
			scribbleAnswers(fill)
			if c.name == "range" {
				if n := s.ResultsStats().Entries; n != 2 {
					t.Fatalf("range fill stored %d entries, want one range entry per epoch span", n)
				}
			}

			var wg sync.WaitGroup
			errc := make(chan error, 8)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						hit, err := run()
						if err != nil {
							errc <- err
							return
						}
						if !reflect.DeepEqual(normalizedResults(hit), normalizedResults(ref)) {
							errc <- errAnswerChanged
							return
						}
						appendToAnswers(hit)
					}
				}()
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			again, err := run()
			if err != nil {
				t.Fatal(err)
			}
			mustIdentical(t, again, ref, "after scribbles and appends")
			if rs := s.ResultsStats(); rs.Hits == 0 {
				t.Fatalf("no query was served from materialized results: %+v", rs)
			}
		})
	}
}
