package main

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/vidsim"
)

// vstore runs one verb in-process and returns what it printed.
func vstore(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = verbs[args[0]](args[1:])
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("vstore %s: %v", strings.Join(args, " "), err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestVerbsShareTheServer drives the store verbs over one directory and
// checks them against the server they open: ingest appends, query answers
// what server.Query answers, and a damaged replica heals.
func TestVerbsShareTheServer(t *testing.T) {
	db := t.TempDir()
	// Query A's three operators at one accuracy, profiled on a short clip:
	// a configuration derived in a second rather than `configure`'s ten.
	sc, err := vidsim.DatasetByName("jackson")
	if err != nil {
		t.Fatal(err)
	}
	p := profile.New(sc)
	p.ClipFrames = 120
	cascade, names, err := query.ByName("A")
	if err != nil {
		t.Fatal(err)
	}
	var consumers []core.Consumer
	for _, st := range cascade.Stages {
		consumers = append(consumers, core.Consumer{Op: st.Op, Target: 0.9, Prof: p})
	}
	cfg, err := core.Configure(consumers, core.Options{StorageProfiler: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Save(configPath(db)); err != nil {
		t.Fatal(err)
	}

	vstore(t, "ingest", "-db", db, "-scene", "jackson", "-segments", "1")
	if out := vstore(t, "ingest", "-db", db, "-scene", "jackson", "-segments", "1"); !strings.HasPrefix(out, "ingested segments [1,2)") {
		t.Fatalf("second ingest did not append:\n%s", out)
	}
	answer := func() string {
		out := vstore(t, "query", "-db", db, "-scene", "jackson", "-from", "0", "-to", "2")
		lines := strings.Split(strings.TrimSpace(out), "\n")
		return lines[len(lines)-1]
	}
	got := answer()

	srv, err := server.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.SegmentsOf("jackson"); n != 2 {
		t.Fatalf("two ingests of one segment left %d segments", n)
	}
	res, err := srv.Query(context.Background(), "jackson", cascade, names, 0.9, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if want := detectionsLine(res.Detections()); got != want || len(res.Detections()) == 0 {
		t.Fatalf("vstore query printed\n  %s\nserver.Query answers\n  %s", got, want)
	}

	vstore(t, "erode", "-db", db, "-scene", "jackson", "-today", "1")
	vstore(t, "stats", "-db", db)

	vstore(t, "damage", "-db", db, "-stream", "jackson", "-segment", "1")
	if out := vstore(t, "scrub", "-db", db); !strings.Contains(out, "repaired 1,") {
		t.Fatalf("scrub did not repair the damaged replica:\n%s", out)
	}
	if out := vstore(t, "scrub", "-db", db); !strings.Contains(out, "0 corrupt, 0 lost") {
		t.Fatalf("store not clean after repair:\n%s", out)
	}
	if healed := answer(); healed != got {
		t.Fatalf("healed store answers\n  %s\nwas\n  %s", healed, got)
	}
}
