package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ops"
)

// fuzzSeedConfig builds a small but fully populated configuration —
// consumers, storage formats, an erosion plan, and every Runtime knob —
// whose serialised form seeds the fuzzer.
func fuzzSeedConfig(tb testing.TB) *Config {
	tb.Helper()
	fp := newFakeProfiler(9)
	cfg, err := Configure([]Consumer{
		{Op: ops.Motion{}, Target: 0.9, Prof: fp},
		{Op: ops.Diff{}, Target: 0.7, Prof: fp},
	}, Options{StorageProfiler: fp, LifespanDays: 3})
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Runtime = Runtime{
		CacheBytes: 1 << 30,
		Tenants: []TenantQuota{
			{Name: "default", Weight: 1},
			{Name: "gold", Weight: 4, MaxInFlight: 8, MaxQueue: 16, RatePerSec: 50, Burst: 100, BytesPerSec: 1 << 20},
		},
	}
	return cfg
}

// runtimeEqual compares Runtime values field-wise: the Tenants slice makes
// the struct non-comparable, and a nil slice must equal an empty one (JSON
// omits both identically).
func runtimeEqual(a, b Runtime) bool {
	ta, tb := a.Tenants, b.Tenants
	a.Tenants, b.Tenants = nil, nil
	if !reflect.DeepEqual(a, b) {
		return false
	}
	return slices.Equal(ta, tb)
}

// FuzzConfigRoundTrip proves configuration persistence never panics on
// arbitrary input, and that anything FromBytes accepts re-serialises to a
// stable fixed point: marshal(parse(b)) == marshal(parse(marshal(parse(b)))).
func FuzzConfigRoundTrip(f *testing.F) {
	seed, err := fuzzSeedConfig(f).MarshalBytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"storage_formats":[{"fidelity":"junk","coding":"junk"}]}`))
	f.Add([]byte(`{"consumers":[{"op":"Nope"}],"subscriptions":[4]}`))
	f.Add(bytes.Replace(seed, []byte(`"golden"`), []byte(`"golden_broken"`), 1))
	f.Fuzz(func(t *testing.T, b []byte) {
		cfg, err := FromBytes(b) // must never panic
		if err != nil {
			return
		}
		out, err := cfg.MarshalBytes()
		if err != nil {
			t.Fatalf("parsed config failed to marshal: %v", err)
		}
		cfg2, err := FromBytes(out)
		if err != nil {
			t.Fatalf("marshalled config failed to re-parse: %v", err)
		}
		out2, err := cfg2.MarshalBytes()
		if err != nil {
			t.Fatalf("re-parsed config failed to marshal: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("round trip is not a fixed point:\n%s\nvs\n%s", out, out2)
		}
		if !runtimeEqual(cfg2.Runtime, cfg.Runtime) {
			t.Fatalf("Runtime knobs drifted: %+v vs %+v", cfg2.Runtime, cfg.Runtime)
		}
	})
}

// TestRuntimeKnobsRoundTrip pins the exact persistence of every Runtime
// knob, including the live-serving ones this PR adds.
func TestRuntimeKnobsRoundTrip(t *testing.T) {
	cfg := fuzzSeedConfig(t)
	b, err := cfg.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if !runtimeEqual(got.Runtime, cfg.Runtime) {
		t.Fatalf("Runtime = %+v, want %+v", got.Runtime, cfg.Runtime)
	}
	if got.Runtime.CacheBytes != 1<<30 {
		t.Fatalf("cache budget lost: %+v", got.Runtime)
	}
	if len(got.Runtime.Tenants) != 2 || got.Runtime.Tenants[1].Weight != 4 ||
		got.Runtime.Tenants[1].RatePerSec != 50 || got.Runtime.Tenants[1].BytesPerSec != 1<<20 {
		t.Fatalf("tenant quotas lost: %+v", got.Runtime.Tenants)
	}
	// A zero Runtime stays omitted from the JSON entirely.
	cfg.Runtime = Runtime{}
	b, err = cfg.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("runtime")) {
		t.Fatalf("zero Runtime serialised: %s", b)
	}
}
