package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
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

// configure saves Query A's three operators at one accuracy, profiled on a
// short clip, as the store's configuration: derived in a second rather
// than `vstore configure`'s ten.
func configure(t *testing.T, db string) *core.Config {
	t.Helper()
	sc, err := vidsim.DatasetByName("jackson")
	if err != nil {
		t.Fatal(err)
	}
	p := profile.New(sc)
	p.ClipFrames = 120
	cascade, _, err := query.ByName("A")
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
	return cfg
}

// TestVerbsShareTheServer drives the store verbs over one directory and
// checks them against the server they open: ingest appends, query answers
// what server.Query answers, and a damaged replica heals.
func TestVerbsShareTheServer(t *testing.T) {
	db := t.TempDir()
	configure(t, db)
	cascade, names, err := query.ByName("A")
	if err != nil {
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

// TestChildProcess is not a test on its own: TestServeProcesses re-executes
// the test binary with a vstore command line after "--", and this runs
// main() on it as that process would.
func TestChildProcess(t *testing.T) {
	if flag.NArg() == 0 {
		t.Skip("vstore child process; run via TestServeProcesses")
	}
	os.Args = append([]string{"vstore"}, flag.Args()...)
	main()
	os.Exit(0)
}

// proc is one vstore verb running as its own process.
type proc struct {
	cmd   *exec.Cmd
	lines chan string // its stdout, closed when the process exits
}

// startProc runs `vstore args...` with env added to the environment and
// returns it with the base URL its listen line announces.
func startProc(t *testing.T, env []string, args ...string) (*proc, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestChildProcess$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, lines: make(chan string, 64)}
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
		close(p.lines)
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	addr, _, _ := strings.Cut(p.await(t, " listening on "), " ")
	return p, "http://" + addr
}

// await returns what follows s on the first line of output containing it.
func (p *proc) await(t *testing.T, s string) string {
	t.Helper()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				t.Fatalf("vstore %s exited before printing %q", p.cmd.Args[3], s)
			}
			if _, rest, found := strings.Cut(line, s); found {
				return rest
			}
		case <-deadline:
			t.Fatalf("vstore %s never printed %q", p.cmd.Args[3], s)
		}
	}
}

// drain sends SIGTERM and requires the drained line and exit status 0.
func (p *proc) drain(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	p.await(t, "drained")
	for range p.lines {
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("vstore %s after SIGTERM: %v", p.cmd.Args[3], err)
	}
}

// TestServeProcesses runs `vstore api` and `vstore route` as real
// processes, so their boot wiring is what a deployment gets: VSTORE_FAULTS,
// the tenant key file, the node list, the listen line and the drain on
// SIGTERM.
func TestServeProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns vstore processes")
	}
	db := t.TempDir()
	cfg := configure(t, db)
	vstore(t, "ingest", "-db", db, "-scene", "jackson", "-segments", "2")
	tenants := filepath.Join(t.TempDir(), "tenants")
	if err := os.WriteFile(tenants, []byte("k-hot hot weight=3\nk-cold cold\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Bit flips on a tenth of one derived family's fast-tier reads. The
	// formats it falls back to stay readable, so every query must answer.
	d := cfg.Derivation
	flaky := d.SFs[(d.Golden+1)%len(d.SFs)].SF.Key()
	node, nodeURL := startProc(t, []string{"VSTORE_FAULTS=read@fast+" + flaky + "=flip:0.1", "VSTORE_FAULT_SEED=7"},
		"api", "-db", db, "-listen", "127.0.0.1:0", "-tenants", tenants, "-max-inflight", "4", "-max-queue", "8")
	router, routerURL := startProc(t, nil, "route", "-nodes", "n1="+nodeURL, "-listen", "127.0.0.1:0")
	ctx := context.Background()
	req := api.QueryRequest{Stream: "jackson", Query: "A", Chunk: 1}

	t.Run("tenants", func(t *testing.T) {
		for _, key := range []string{"", "k-hot", "k-cold"} {
			if _, _, err := (&api.Client{BaseURL: nodeURL, APIKey: key}).Query(ctx, req); err != nil {
				t.Fatalf("query with key %q: %v", key, err)
			}
		}
		_, _, err := (&api.Client{BaseURL: nodeURL, APIKey: "k-nobody"}).Query(ctx, req)
		if se := new(api.StatusError); !errors.As(err, &se) || se.Code != http.StatusUnauthorized {
			t.Fatalf("unknown key answered %v, want 401", err)
		}
		saved, err := core.Load(configPath(db))
		if err != nil {
			t.Fatal(err)
		}
		if q := saved.Runtime.Tenants; len(q) != 2 || q[0].Name != "hot" || q[0].Weight != 3 || q[1].Name != "cold" {
			t.Fatalf("config.json holds tenant quotas %+v, want the key file's hot (weight 3) and cold", q)
		}
	})

	t.Run("faults-masked", func(t *testing.T) {
		cl := api.NewClient(nodeURL)
		for i := 0; i < 4; i++ {
			if _, _, err := cl.Query(ctx, req); err != nil {
				t.Fatalf("query %d through injected flips on %s: %v", i, flaky, err)
			}
		}
		st, err := cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if s := st.Store; s.CorruptReads == 0 && s.DegradedServes == 0 && s.Repairs == 0 {
			t.Fatalf("no injected corruption was seen (%+v): the probe proved nothing", s)
		}
		if h, err := cl.Healthz(ctx); err != nil || !h.OK {
			t.Fatalf("healthz = %+v, %v", h, err)
		}
	})

	t.Run("routed", func(t *testing.T) {
		canon := func(chunks []api.QueryChunk, err error) string {
			if err != nil {
				t.Fatal(err)
			}
			for i := range chunks {
				chunks[i].VirtualSeconds, chunks[i].Speed = 0, 0
			}
			b, _ := json.Marshal(chunks)
			return string(b)
		}
		direct, _, err := api.NewClient(nodeURL).Query(ctx, req)
		want := canon(direct, err)
		routed, _, err := api.NewClient(routerURL).Query(ctx, req)
		if got := canon(routed, err); got != want || len(routed) != 2 {
			t.Fatalf("routed answer differs from the node's:\nnode   %s\nrouter %s", want, got)
		}
	})

	t.Run("drain", func(t *testing.T) {
		// A SIGTERM the moment the listen line appears still drains.
		early, _ := startProc(t, nil, "route", "-nodes", "n1="+nodeURL, "-listen", "127.0.0.1:0")
		early.drain(t)
		router.drain(t)
		node.drain(t)
	})
}
