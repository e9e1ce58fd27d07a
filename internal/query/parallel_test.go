package query

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/format"
	"repro/internal/retrieve"
)

// TestParallelRetrievalMatchesSequential runs the same cascade with the
// sequential and parallel engines over the same store and asserts
// byte-identical results, including the order-sensitive virtual-clock
// accumulation — with and without a retrieval cache.
func TestParallelRetrievalMatchesSequential(t *testing.T) {
	store := newStore(t)
	ingestSegments(t, store, "jackson", 3)
	sfs := testSFs()
	cfLow := format.ConsumptionFormat{Fidelity: format.Fidelity{Quality: format.QBest, Crop: format.Crop100, Res: 200, Sampling: s12}}
	cfHigh := format.ConsumptionFormat{Fidelity: format.Fidelity{Quality: format.QBest, Crop: format.Crop100, Res: 400, Sampling: s16}}
	binding := Binding{
		{CF: cfLow, SF: sfs[1]},
		{CF: cfLow, SF: sfs[1]},
		{CF: cfHigh, SF: sfs[0]},
	}

	seq := Engine{Store: store, Workers: 1}
	ref, err := seq.Run(context.Background(), "jackson", QueryA(), binding, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Every worker count, with codec buffer pooling on and off: the
	// engine's output — including the GOP-parallel decode merge — must be
	// byte-identical to the sequential, pooling-free run.
	defer codec.SetPooling(true)
	for _, pooling := range []bool{true, false} {
		codec.SetPooling(pooling)
		for _, workers := range []int{2, 8} {
			for _, cache := range []*retrieve.Cache{nil, retrieve.NewCache(1 << 30)} {
				par := Engine{Store: store, Workers: workers, Cache: cache}
				// Two passes: the second exercises cache hits when enabled.
				for pass := 0; pass < 2; pass++ {
					got, err := par.Run(context.Background(), "jackson", QueryA(), binding, 0, 3)
					if err != nil {
						t.Fatalf("pooling=%v workers=%d cache=%v pass=%d: %v", pooling, workers, cache != nil, pass, err)
					}
					if !reflect.DeepEqual(got.Detections, ref.Detections) {
						t.Fatalf("pooling=%v workers=%d cache=%v pass=%d: detections differ", pooling, workers, cache != nil, pass)
					}
					if !reflect.DeepEqual(got.FinalPTS, ref.FinalPTS) {
						t.Fatalf("pooling=%v workers=%d cache=%v pass=%d: final PTS differ", pooling, workers, cache != nil, pass)
					}
					if cache == nil && got.VirtualSeconds != ref.VirtualSeconds {
						t.Fatalf("pooling=%v workers=%d pass=%d: virtual seconds %v != %v", pooling, workers, pass, got.VirtualSeconds, ref.VirtualSeconds)
					}
				}
				if cache != nil {
					if st := cache.Stats(); st.Hits == 0 {
						t.Fatalf("workers=%d: no cache hits on repeated run: %+v", workers, st)
					}
				}
			}
		}
	}
}
