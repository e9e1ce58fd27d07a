package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/format"
	"repro/internal/ops"
	"repro/internal/profile"
)

// placementProfiler wraps the fake profiler with a fixed retrieval-speed
// table so the placement rule's two outcomes are both reachable.
type placementProfiler struct {
	*fakeProfiler
	speed map[string]float64
}

func (p *placementProfiler) RetrievalSpeed(sf format.StorageFormat, s format.Sampling) float64 {
	if v, ok := p.speed[sf.Fidelity.String()]; ok {
		return v
	}
	return p.fakeProfiler.RetrievalSpeed(sf, s)
}

// TestPlacementRule pins the derivation rule: a format whose subscriber
// demand could not be met from an 8x-slower cold read stays fast, a
// format with at least ColdSlowdown retrieval slack goes cold, and the
// unsubscribed golden fallback always goes cold.
func TestPlacementRule(t *testing.T) {
	mk := func(res format.Resolution) format.StorageFormat {
		return format.StorageFormat{
			Fidelity: format.Fidelity{Quality: format.QBest, Crop: format.Crop100, Res: res, Sampling: format.Samplings[0]},
			Coding:   format.Coding{Speed: format.SpeedSlowest, KeyframeI: format.KeyframeIntervals[0]},
		}
	}
	hot, slack, golden := mk(format.Resolutions[0]), mk(format.Resolutions[1]), mk(format.Resolutions[2])
	d := &StorageDerivation{
		Choices: []ConsumptionChoice{
			{Consumer: Consumer{Op: fakeOp("hot")}, CF: format.ConsumptionFormat{Fidelity: hot.Fidelity},
				Profile: profile.CFProfile{Speed: 100}},
			{Consumer: Consumer{Op: fakeOp("lazy")}, CF: format.ConsumptionFormat{Fidelity: slack.Fidelity},
				Profile: profile.CFProfile{Speed: 100}},
		},
		SFs: []DerivedSF{
			{SF: hot, Consumers: []int{0}},
			{SF: slack, Consumers: []int{1}},
			{SF: golden},
		},
		Subs:   []int{0, 1},
		Golden: 2,
	}
	p := &placementProfiler{fakeProfiler: newFakeProfiler(1), speed: map[string]float64{
		hot.Fidelity.String():    200,  // 200/8 < 100: cold media too slow
		slack.Fidelity.String():  1000, // 1000/8 > 100: cold suffices
		golden.Fidelity.String(): 1,
	}}
	derivePlacements(d, p)
	if got := d.SFs[0].Placement; got != PlaceFast {
		t.Fatalf("demand-bound format placed %v, want fast", got)
	}
	if got := d.SFs[1].Placement; got != PlaceCold {
		t.Fatalf("slack format placed %v, want cold", got)
	}
	if got := d.SFs[2].Placement; got != PlaceCold {
		t.Fatalf("unsubscribed golden format placed %v, want cold", got)
	}
}

// TestPlacementDeterminism: configuring twice over identical profiles
// yields a byte-identical serialised plan — placement included — so a
// re-derived epoch never flaps formats between tiers.
func TestPlacementDeterminism(t *testing.T) {
	derive := func() []byte {
		cfg, err := Configure([]Consumer{
			{Op: ops.Motion{}, Target: 0.9, Prof: newFakeProfiler(7)},
			{Op: ops.Diff{}, Target: 0.7, Prof: newFakeProfiler(7)},
		}, Options{StorageProfiler: newFakeProfiler(7), LifespanDays: 3})
		if err != nil {
			t.Fatal(err)
		}
		b, err := cfg.MarshalBytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := derive(), derive()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical derivations serialised differently")
	}
	if !bytes.Contains(a, []byte(`"placement"`)) {
		t.Fatal("serialised plan carries no placement")
	}
}

// TestPlacementPersistence: placements round-trip through the persisted
// form, and a storage format without the field is rejected.
func TestPlacementPersistence(t *testing.T) {
	cfg, err := Configure([]Consumer{
		{Op: ops.Motion{}, Target: 0.9, Prof: newFakeProfiler(3)},
	}, Options{StorageProfiler: newFakeProfiler(3), LifespanDays: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Derivation.SFs[cfg.Derivation.Golden].Placement = PlaceCold
	cfg.Runtime.FastTierBytes = 1 << 20
	cfg.Runtime.Shards = 8
	cfg.Runtime.DemoteAfterDays = 2
	b, err := cfg.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.Derivation.SFs {
		if got.Derivation.SFs[i].Placement != cfg.Derivation.SFs[i].Placement {
			t.Fatalf("SF%d placement lost in round-trip", i)
		}
	}
	if rt := got.Runtime; rt.FastTierBytes != 1<<20 || rt.Shards != 8 || rt.DemoteAfterDays != 2 {
		t.Fatalf("tier runtime knobs lost in round-trip: %+v", rt)
	}

	// A storage format with no placement field is rejected, not defaulted.
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	delete(raw["storage_formats"].([]any)[0].(map[string]any), "placement")
	stripped, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromBytes(stripped); err == nil || !strings.Contains(err.Error(), "placement") {
		t.Fatalf("storage format without placement: err = %v, want a placement error", err)
	}

	// An unknown placement is rejected, not guessed.
	bad := bytes.Replace(b, []byte(`"placement": "fast"`), []byte(`"placement": "warm"`), 1)
	if !bytes.Equal(bad, b) {
		if _, err := FromBytes(bad); err == nil {
			t.Fatal("unknown placement accepted")
		}
	}

	// Placements() maps format keys to tiers, fast winning duplicates.
	pm := cfg.Placements()
	if len(pm) == 0 {
		t.Fatal("Placements() empty")
	}
	for _, sf := range cfg.Derivation.SFs {
		if _, ok := pm[sf.SF.Key()]; !ok {
			t.Fatalf("Placements() missing %q", sf.SF.Key())
		}
	}
}
