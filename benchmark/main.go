// Command benchmark is VStore's one benchmark: it sets up a store, runs the
// four workloads of BENCHMARK.json against it, checks every answer against
// a reference, and times each layer in a separate traced pass. See
// README.md in this directory.
//
//	go run ./benchmark -seed 1                       all workloads, then the traced pass
//	go run ./benchmark -runs 5 -out a.json           repeat each workload; medians and quartiles
//	go run ./benchmark -compare a.json b.json        judge b against a by BENCHMARK.json's bounds
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                                 one workload; the result is the last line of stdout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// specMetric is one metric as BENCHMARK.json declares it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is BENCHMARK.json: the one place metric names, units and bounds
// live. The harness refuses to print a metric the file does not declare, or
// to omit one it does.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declared attaches units to measured values and checks that the values
// are exactly the declared metrics.
func declared(values map[string]float64, defs []specMetric) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// summary is one end-to-end metric over the repeated runs of a workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

type workloadReport struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]summary     `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"` // from the last run
}

// report is what a full run writes with -out and what -compare reads.
type report struct {
	Env struct {
		NumCPU     int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
	} `json:"env"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Runs      int                        `json:"runs"`
	Workloads map[string]*workloadReport `json:"workloads"`
	PerLayer  map[string]metricValue     `json:"per_layer"` // the traced pass
}

// driverResult is the last line of stdout when one workload is run.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// sizes are the only things -smoke changes.
type sizes struct {
	segs   int // segments of jackson set-up ingests into cam
	setups int // times set-up is repeated for its median
	probe  prober
}

var (
	fullSizes  = sizes{segs: 4, setups: 3, probe: prober{minReps: 3, maxReps: 30, budget: time.Second}}
	smokeSizes = sizes{segs: 2, setups: 1, probe: prober{minReps: 1, maxReps: 3, budget: 10 * time.Millisecond}}
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	runs     int
	smoke    bool
	out      string
	spec     string
	scratch  string
}

// corruptReferences makes every reference answer wrong. Only the smoke test
// sets it, to see the run count every operation as failed and exit non-zero.
var corruptReferences bool

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload and print one JSON result line (empty: all, then the traced pass)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 15, "seconds each workload is measured for")
	trace := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 traces and prints the per-layer metrics")
	fs.IntVar(&o.runs, "runs", 1, "repeat each workload this many times and report median and quartiles")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes and a hand-written configuration, for the smoke test")
	fs.StringVar(&o.out, "out", "benchmark/out", "directory for results.json and trace.json")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "the benchmark's declaration")
	fs.StringVar(&o.scratch, "scratch", ".bench_build", "directory for stores and the cached configuration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace != 0
	sp, err := loadSpec(o.spec)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), sp, stdout, stderr)
	}
	if o.seconds <= 0 || o.runs < 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -seconds and -runs must be positive, and there are no positional arguments")
		return 2
	}
	correct, err := measure(o, sp, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// measure sets up, runs the selected workloads and, when asked, the traced
// pass, and prints the result. It reports whether every checked answer was
// correct.
func measure(o options, sp *spec, stdout, stderr io.Writer) (bool, error) {
	var selected []workload
	for _, w := range workloads {
		if o.workload == "" || o.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return false, fmt.Errorf("unknown workload %q", o.workload)
	}
	sz := fullSizes
	var d *derived
	if o.smoke {
		sz, d = smokeSizes, smokeConfig()
	} else {
		var err error
		if d, err = loadConfig(o.scratch); err != nil {
			return false, err
		}
	}
	tmp := filepath.Join(o.scratch, "tmp")
	b, setupS, err := setUp(d.cfg, tmp, sz.segs, sz.setups)
	if err != nil {
		return false, err
	}
	defer b.close()
	b.corrupt = corruptReferences
	if err := b.computeReferences(); err != nil {
		return false, err
	}
	fmt.Fprintf(stderr, "bench: set-up %.2f s (median of %d), %d segments, %d storage formats\n",
		setupS, sz.setups, sz.segs, len(d.cfg.Derivation.SFs))

	single := o.workload != ""
	var rec *recorder
	if !single || o.trace {
		rec = newRecorder()
	}
	ro := runOptions{seconds: o.seconds, seed: o.seed}
	if single {
		ro.rec = rec // a full run measures with tracing off and traces only the ladder
	}
	rep := &report{Seed: o.seed, Seconds: o.seconds, Runs: o.runs, Workloads: map[string]*workloadReport{}}
	rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.Go = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	correct := true
	var last *measurement
	for _, w := range selected {
		wr := &workloadReport{Correct: true, EndToEnd: map[string]summary{}}
		rep.Workloads[w.name] = wr
		values := map[string][]float64{}
		for r := 0; r < o.runs; r++ {
			m, err := w.run(b, ro)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			if m.failed > 0 || m.attempted == 0 {
				wr.Correct, correct = false, false
				fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed: %v\n", w.name, m.failed, m.attempted, m.firstErr)
			}
			wr.Attempted += m.attempted
			wr.Failed += m.failed
			e2e, err := declared(m.endToEnd(setupS), sp.EndToEnd)
			if err != nil {
				return false, err
			}
			for name, v := range e2e {
				values[name] = append(values[name], v.Value)
			}
			last = m
		}
		for _, def := range sp.EndToEnd {
			q1, q2, q3 := quartiles(values[def.Name])
			wr.EndToEnd[def.Name] = summary{Unit: def.Unit, Median: q2, Q1: q1, Q3: q3, Values: values[def.Name]}
		}
		wr.PerLayer = map[string]metricValue{}
		for name, v := range last.counters {
			wr.PerLayer[name] = metricValue{Value: v}
		}
	}

	// The per-layer metrics are the traced pass's plus the counters of the
	// workload just run. A full run keeps each workload's counters in the
	// workload's own section.
	var perLayer map[string]metricValue
	if rec != nil {
		probe := sz.probe
		probe.rec = rec
		ladder, err := runLadder(b, probe, tmp)
		if err != nil {
			return false, fmt.Errorf("traced pass: %w", err)
		}
		ladder["core.storage_formats"] = float64(len(d.cfg.Derivation.SFs))
		ladder["profile.consumption_runs"] = float64(d.ConsumptionRuns)
		ladder["profile.storage_runs"] = float64(d.StorageRuns)
		all := maps.Clone(ladder)
		maps.Copy(all, last.counters)
		if perLayer, err = declared(all, sp.PerLayer); err != nil {
			return false, err
		}
		rep.PerLayer = map[string]metricValue{}
		for name := range ladder {
			rep.PerLayer[name] = perLayer[name]
		}
		for _, wr := range rep.Workloads {
			for name, v := range wr.PerLayer {
				wr.PerLayer[name] = metricValue{v.Value, perLayer[name].Unit}
			}
		}
		if err := rec.write(filepath.Join(o.out, "trace.json")); err != nil {
			return false, err
		}
	}

	if single {
		wr := rep.Workloads[o.workload]
		res := driverResult{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: perLayer}
		if !o.trace {
			res.Metrics = map[string]metricValue{}
			for name, s := range wr.EndToEnd {
				res.Metrics[name] = metricValue{s.Median, s.Unit}
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return false, err
		}
		fmt.Fprintln(stdout, string(line))
		return correct, nil
	}
	printReport(stdout, rep, sp)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return false, err
	}
	js, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return false, err
	}
	return correct, os.WriteFile(filepath.Join(o.out, "results.json"), js, 0o644)
}

// printReport prints every metric by name with its unit: per workload the
// end-to-end metrics and the workload's own counters, then the traced pass.
func printReport(w io.Writer, rep *report, sp *spec) {
	for _, wl := range sp.Workloads {
		wr := rep.Workloads[wl.Name]
		fmt.Fprintf(w, "workload %s: correct=%v attempted=%d failed=%d failed_ops_share=%g\n",
			wl.Name, wr.Correct, wr.Attempted, wr.Failed, float64(wr.Failed)/float64(max(wr.Attempted, 1)))
		for _, def := range sp.EndToEnd {
			s := wr.EndToEnd[def.Name]
			fmt.Fprintf(w, "  %-34s %14.4f %-10s", def.Name, s.Median, s.Unit)
			if rep.Runs > 1 {
				fmt.Fprintf(w, " q1 %.4f q3 %.4f over %d runs", s.Q1, s.Q3, rep.Runs)
			}
			fmt.Fprintln(w)
		}
		for _, name := range sortedKeys(wr.PerLayer) {
			fmt.Fprintf(w, "  %-34s %14.4f %-10s\n", name, wr.PerLayer[name].Value, wr.PerLayer[name].Unit)
		}
	}
	fmt.Fprintln(w, "traced pass:")
	for _, name := range sortedKeys(rep.PerLayer) {
		fmt.Fprintf(w, "  %-34s %14.4f %-10s\n", name, rep.PerLayer[name].Value, rep.PerLayer[name].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which is
// what BENCHMARK.json's bounds are judged by. Fewer than two values have no
// spread: all three are the value itself.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// compareReports prints, per workload and end-to-end metric, both medians,
// the relative change of b against a, and a verdict: regressed when b is
// worse than a by more than the metric's bound, unresolved when either
// side's quartile spread exceeds that bound, ok otherwise.
func compareReports(pathA, pathB string, sp *spec, stdout, stderr io.Writer) int {
	load := func(path string) (*report, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	a, err := load(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := load(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	bad := 0
	fmt.Fprintf(stdout, "%-16s %-18s %14s %14s %9s  %s\n", "workload", "metric", "a median", "b median", "change", "verdict")
	for _, wl := range sp.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, def := range sp.EndToEnd {
			sa, sb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			worse := (sb.Median - sa.Median) / sa.Median
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case (sa.Q3-sa.Q1)/sa.Median > def.Bound || (sb.Q3-sb.Q1)/sb.Median > def.Bound:
				verdict = "unresolved"
				bad++
			case worse > def.Bound:
				verdict = "regressed"
				bad++
			}
			fmt.Fprintf(stdout, "%-16s %-18s %14.4f %14.4f %+8.1f%%  %s\n",
				wl.Name, def.Name, sa.Median, sb.Median, 100*(sb.Median-sa.Median)/sa.Median, verdict)
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(stdout, "%-16s %-18s %14d %14d %9s  regressed\n", wl.Name, "failed", wa.Failed, wb.Failed, "")
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
