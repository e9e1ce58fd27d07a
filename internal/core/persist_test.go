package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/format"
	"repro/internal/ops"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	fp := newFakeProfiler(21)
	var consumers []Consumer
	for _, op := range []ops.Operator{ops.Diff{}, ops.Motion{}, ops.OCR{}} {
		for _, a := range []float64{0.9, 0.7} {
			consumers = append(consumers, Consumer{Op: op, Target: a, Prof: fp})
		}
	}
	cfg, err := Configure(consumers, Options{StorageProfiler: fp, LifespanDays: 5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "config.json")
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := cfg.Derivation, got.Derivation
	if len(d1.Choices) != len(d2.Choices) || len(d1.SFs) != len(d2.SFs) || d1.Golden != d2.Golden {
		t.Fatalf("structure mismatch: %d/%d choices, %d/%d SFs", len(d1.Choices), len(d2.Choices), len(d1.SFs), len(d2.SFs))
	}
	for i := range d1.Choices {
		if d1.Choices[i].CF != d2.Choices[i].CF {
			t.Fatalf("choice %d CF %v != %v", i, d2.Choices[i].CF, d1.Choices[i].CF)
		}
		if d1.Choices[i].Consumer.Op.Name() != d2.Choices[i].Consumer.Op.Name() {
			t.Fatalf("choice %d op mismatch", i)
		}
		if d1.Subs[i] != d2.Subs[i] {
			t.Fatalf("subscription %d mismatch", i)
		}
	}
	for i := range d1.SFs {
		if d1.SFs[i].SF != d2.SFs[i].SF {
			t.Fatalf("SF %d: %v != %v", i, d2.SFs[i].SF, d1.SFs[i].SF)
		}
	}
	if got.Erosion == nil || got.Erosion.K != cfg.Erosion.K {
		t.Fatal("erosion plan lost")
	}
	// BindingFor works on the loaded configuration.
	cf, sf, err := got.BindingFor("Motion", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !sf.Satisfies(cf) {
		t.Fatal("loaded binding violates R1")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := Load(bad); err == nil {
		t.Error("malformed JSON accepted")
	}
	// Unknown operator name.
	os.WriteFile(bad, []byte(`{"consumers":[{"op":"Nope","target":0.9,"cf":"best-720p-1-100%"}],"storage_formats":[],"subscriptions":[]}`), 0o644)
	if _, err := Load(bad); err == nil {
		t.Error("unknown operator accepted")
	}
}

func TestParseCoding(t *testing.T) {
	for _, c := range []format.Coding{
		format.RawCoding,
		{Speed: format.SpeedSlowest, KeyframeI: 250},
		{Speed: format.SpeedFastest, KeyframeI: 5},
	} {
		got, err := parseCoding(c.String())
		if err != nil || got != c {
			t.Errorf("parseCoding(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := parseCoding("10-hyperspeed"); err == nil {
		t.Error("bad speed step accepted")
	}
	if _, err := parseCoding("junk"); err == nil {
		t.Error("junk coding accepted")
	}
}

func TestStorageFormatsAccessor(t *testing.T) {
	fp := newFakeProfiler(5)
	cfg, err := Configure([]Consumer{{Op: ops.Diff{}, Target: 0.8, Prof: fp}}, Options{StorageProfiler: fp})
	if err != nil {
		t.Fatal(err)
	}
	sfs := cfg.StorageFormats()
	if len(sfs) != len(cfg.Derivation.SFs) {
		t.Fatalf("StorageFormats length %d", len(sfs))
	}
}

// TestConfigBytesGolden pins the saved bytes of a configuration carrying
// every Runtime knob, two tenants with every quota field set and an
// erosion plan to testdata/config_all_knobs.golden.json. The keys are what
// every existing store's config.json was written with, so a renamed key
// (which would silently drop that knob on reopen) fails here, and a new
// knob fails the every-field-set check until the golden carries it.
func TestConfigBytesGolden(t *testing.T) {
	cfg := fuzzSeedConfig(t)
	cfg.Runtime = Runtime{
		CacheBytes:      1 << 30,
		ResultsBytes:    64 << 20,
		FastTierBytes:   5e9,
		Shards:          4,
		DemoteAfterDays: 2,
		Tenants: []TenantQuota{
			{Name: "default", Weight: 2, MaxInFlight: 4, MaxQueue: 8, RatePerSec: 12.5, Burst: 20, BytesPerSec: 1 << 24},
			{Name: "gold", Weight: 4, MaxInFlight: 8, MaxQueue: -1, RatePerSec: 50, Burst: 100, BytesPerSec: 1 << 20},
		},
	}
	if cfg.Erosion == nil {
		t.Fatal("seed configuration carries no erosion plan")
	}
	// Runtime's keys are omitempty: a zero field would not be written.
	for _, v := range []any{cfg.Runtime, cfg.Runtime.Tenants[0], cfg.Runtime.Tenants[1]} {
		rv := reflect.ValueOf(v)
		for i := 0; i < rv.NumField(); i++ {
			if rv.Field(i).IsZero() {
				t.Fatalf("%s.%s is unset: the golden must carry every saved field", rv.Type().Name(), rv.Type().Field(i).Name)
			}
		}
	}
	got, err := cfg.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/config_all_knobs.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("saved configuration differs from the golden; got:\n%s", got)
	}
}

// TestDroppedRuntimeKeysLoad: query_workers, ingest_queue_depth and
// erode_interval_ns were once saved Runtime keys. A config.json that still
// carries them loads, and saving it again writes exactly the golden.
func TestDroppedRuntimeKeysLoad(t *testing.T) {
	want, err := os.ReadFile("testdata/config_all_knobs.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(want, []byte(`"runtime": {`), []byte(`"runtime": {
    "query_workers": 8,
    "ingest_queue_depth": 6,
    "erode_interval_ns": 90000000000,`), 1)
	if bytes.Equal(old, want) {
		t.Fatal("golden carries no runtime object")
	}
	cfg, err := FromBytes(old)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cfg.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resaved configuration differs from the golden; got:\n%s", got)
	}
}
