package tenant

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

func writeKeyFile(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "tenants")
	if err := os.WriteFile(p, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadKeyFile(t *testing.T) {
	p := writeKeyFile(t, `
# production tenants
sk-hot   analytics weight=4 inflight=8 rate=100 burst=200
sk-hot2  analytics
sk-cold  batch     queue=32 bytes_per_sec=1048576

sk-free  default   weight=1
`)
	kf, err := LoadKeyFile(p)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := map[string]string{
		"sk-hot": "analytics", "sk-hot2": "analytics",
		"sk-cold": "batch", "sk-free": "default",
	}
	if len(kf.Keys) != len(wantKeys) {
		t.Fatalf("keys = %v", kf.Keys)
	}
	for k, name := range wantKeys {
		if kf.Keys[k] != name {
			t.Fatalf("key %q -> %q, want %q", k, kf.Keys[k], name)
		}
	}
	if len(kf.Quotas) != 3 {
		t.Fatalf("quotas = %+v, want 3 tenants", kf.Quotas)
	}
	a := kf.Quotas[0]
	if a.Name != "analytics" || a.Weight != 4 || a.MaxInFlight != 8 || a.RatePerSec != 100 || a.Burst != 200 {
		t.Fatalf("analytics quota = %+v", a)
	}
	b := kf.Quotas[1]
	if b.Name != "batch" || b.MaxQueue != 32 || b.BytesPerSec != 1<<20 {
		t.Fatalf("batch quota = %+v", b)
	}
}

func TestLoadKeyFileErrors(t *testing.T) {
	cases := []struct {
		name, content, wantErr string
	}{
		{"missing-tenant", "sk-lonely\n", "want \"<key> <tenant>"},
		{"bad-attr", "sk-a t1 weight\n", "bad attribute"},
		{"bad-value", "sk-a t1 weight=heavy\n", "bad weight value"},
		{"nan-rate", "sk-a t1 rate=NaN\n", "bad rate value"},
		{"inf-rate", "sk-a t1 rate=inf\n", "bad rate value"},
		{"unknown-attr", "sk-a t1 color=red\n", "unknown attribute"},
		{"dup-key", "sk-a t1\nsk-a t2\n", "already mapped"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := LoadKeyFile(writeKeyFile(t, c.content))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, c.wantErr)
			}
		})
	}
	// Errors carry the line number so the operator can find the bad line.
	_, err := LoadKeyFile(writeKeyFile(t, "# fine\nsk-a t1\nbroken\n"))
	if err == nil || !strings.Contains(err.Error(), ":3:") {
		t.Fatalf("err = %v, want line number :3:", err)
	}
}

func TestMergeQuotas(t *testing.T) {
	persisted := []core.TenantQuota{
		{Name: "default", Weight: 1},
		{Name: "analytics", Weight: 2, RatePerSec: 10},
		{Name: "legacy", Weight: 1},
	}
	file := []core.TenantQuota{
		{Name: "analytics", Weight: 8}, // operator raised the weight, dropped the rate cap
		{Name: "batch", Weight: 1, MaxQueue: 16},
	}
	got := MergeQuotas(persisted, file)
	want := []core.TenantQuota{
		{Name: "default", Weight: 1},
		{Name: "analytics", Weight: 8}, // file wins wholesale
		{Name: "legacy", Weight: 1},    // unmentioned persisted tenant survives
		{Name: "batch", Weight: 1, MaxQueue: 16},
	}
	if len(got) != len(want) {
		t.Fatalf("merged = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// FuzzLoadKeyFile feeds any bytes to LoadKeyFile as a tenants file. It must
// never panic; a file it accepts maps every key to exactly one uniquely
// named quota, merges into a saved configuration that still saves, and
// loads to the same result twice.
func FuzzLoadKeyFile(f *testing.F) {
	golden, err := os.ReadFile("../core/testdata/config_all_knobs.golden.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		"# <api-key> <tenant> [weight=W] [inflight=N] [queue=N] [rate=R] [burst=B] [bytes_per_sec=B]\n" +
			"key-analytics  analytics  weight=3\nkey-dashboard  dashboard\n" +
			"key-partner    partner    rate=2 burst=2 bytes_per_sec=1000000\n",
		"\n   \n# only a comment\n",
		"sk-a t1 weight\n",
		"sk-a t1\nsk-a t2\n",
		"sk-a t1 rate=NaN\n",
		"sk-a t1 rate=1e400\n",
		"sk-a t1 burst=-1\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p := filepath.Join(t.TempDir(), "tenants")
		if err := os.WriteFile(p, b, 0o600); err != nil {
			t.Fatal(err)
		}
		kf, err := LoadKeyFile(p)
		again, err2 := LoadKeyFile(p)
		if fmt.Sprint(err) != fmt.Sprint(err2) || !reflect.DeepEqual(kf, again) {
			t.Fatalf("two loads differ: %+v, %v vs %+v, %v", kf, err, again, err2)
		}
		if err != nil {
			return
		}
		names := map[string]bool{}
		for _, q := range kf.Quotas {
			if names[q.Name] {
				t.Fatalf("tenant %q listed twice: %+v", q.Name, kf.Quotas)
			}
			names[q.Name] = true
		}
		for key, name := range kf.Keys {
			if !names[name] {
				t.Fatalf("key %q names tenant %q, which has no quota", key, name)
			}
		}
		cfg, err := core.FromBytes(golden)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Runtime.Tenants = MergeQuotas(cfg.Runtime.Tenants, kf.Quotas)
		if _, err := cfg.MarshalBytes(); err != nil {
			t.Fatalf("merged quotas do not save: %v (%+v)", err, kf.Quotas)
		}
	})
}
