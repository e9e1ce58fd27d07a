package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

func names(defs []specMetric) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs the whole harness at its smallest size and checks that what
// it prints is exactly what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, n := range append(names(sp.EndToEnd), names(sp.PerLayer)...) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric name %q is malformed or declared twice", n)
		}
		seen[n] = true
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, w.Name, workloads[i].name)
		}
	}

	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-smoke", "-seconds", "1", "-spec", specPath, "-scratch", dir, "-out", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("smoke run exited %d:\n%s", code, stderr.String())
	}
	var rep report
	b, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	perLayer := sortedKeys(rep.PerLayer)
	for _, w := range sp.Workloads {
		wr := rep.Workloads[w.Name]
		if wr == nil {
			t.Fatalf("workload %s is missing from the results", w.Name)
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, wr.Correct, wr.Attempted, wr.Failed)
		}
		if got, want := sortedKeys(wr.EndToEnd), names(sp.EndToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: end-to-end metrics %v, declared %v", w.Name, got, want)
		}
		// The traced pass and one workload's counters together are the
		// declared per-layer list, each name once.
		all := append(sortedKeys(wr.PerLayer), perLayer...)
		sort.Strings(all)
		if want := names(sp.PerLayer); strings.Join(all, " ") != strings.Join(want, " ") {
			t.Errorf("%s: per-layer metrics %v, declared %v", w.Name, all, want)
		}
		if n := strings.Count(stdout.String(), "workload "+w.Name+":"); n != 1 {
			t.Errorf("workload %s is printed %d times", w.Name, n)
		}
	}
	for _, n := range perLayer {
		if c := strings.Count(stdout.String(), "\n  "+n+" "); c != 1 {
			t.Errorf("per-layer metric %s is printed %d times", n, c)
		}
	}
	for _, n := range names(sp.EndToEnd) {
		if c := strings.Count(stdout.String(), "\n  "+n+" "); c != len(sp.Workloads) {
			t.Errorf("end-to-end metric %s is printed %d times for %d workloads", n, c, len(sp.Workloads))
		}
	}
	var tr struct{ Spans []span }
	if b, err = os.ReadFile(filepath.Join(dir, "trace.json")); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &tr); err != nil || len(tr.Spans) == 0 {
		t.Errorf("trace.json holds %d spans (%v)", len(tr.Spans), err)
	}
}

// TestCorruptReferenceFails flips the reference answers and expects every
// workload to count every operation as failed, and the command to exit
// non-zero.
func TestCorruptReferenceFails(t *testing.T) {
	dir := t.TempDir()
	b, _, err := setUp(smokeConfig().cfg, dir, smokeSizes.segs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	b.corrupt = true
	if err := b.computeReferences(); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		m, err := w.run(b, runOptions{seconds: 0.2, seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if m.attempted == 0 || m.failed != m.attempted {
			t.Errorf("%s: %d of %d operations failed against corrupted references", w.name, m.failed, m.attempted)
		}
	}

	corruptReferences = true
	defer func() { corruptReferences = false }()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-smoke", "-workload", "serve_warm", "-seconds", "0.2", "-spec", specPath, "-scratch", dir, "-out", dir}, &stdout, &stderr)
	var res driverResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		t.Fatalf("no result line: %v\n%s", err, stderr.String())
	}
	if code == 0 || res.Correct || res.Failed != res.Attempted {
		t.Errorf("exit %d correct=%v failed %d of %d with corrupted references", code, res.Correct, res.Failed, res.Attempted)
	}
}
