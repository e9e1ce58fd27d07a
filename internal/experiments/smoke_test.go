package experiments

import (
	"bytes"
	"os"
	"testing"
)

// TestTable3Smoke derives the full configuration with a short profiling
// clip and prints it (-v) for inspection. The serialised configuration must
// equal testdata/table3_clip120.golden.json byte for byte: every operator
// accuracy, every virtual-clock speed, size and ingest cost, every chosen
// format. A change to a pixel kernel, a Stats count or the clock that moves
// any of them fails here; a change that means to move them regenerates the
// golden from cfg.MarshalBytes() and says why.
func TestTable3Smoke(t *testing.T) {
	e := testEnv(120)
	cfg, err := Table3(e)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + RenderTable3(cfg))
	got, err := cfg.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/table3_clip120.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("derived configuration differs from the golden; got:\n%s", got)
	}
	d := cfg.Derivation
	if len(d.Choices) != 24 {
		t.Fatalf("consumers = %d, want 24", len(d.Choices))
	}
	if len(d.SFs) < 2 || len(d.SFs) > 12 {
		t.Fatalf("derived %d SFs; expected a small coalesced set", len(d.SFs))
	}
	for i, ch := range d.Choices {
		if !d.SFs[d.Subs[i]].SF.Satisfies(ch.CF) {
			t.Fatalf("R1 violated for consumer %v", ch.Consumer)
		}
	}
}
