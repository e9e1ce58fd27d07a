// Benchmarks regenerating the paper's evaluation artifacts (one benchmark
// per table/figure, §6-§7). Each runs an entire experiment per iteration,
// so its ns/op is the cost of regenerating that artifact; run
//
//	go test -bench=. -benchmem
//
// at the module root. Reduced parameters (short profiling clips, few
// segments) keep a full sweep tractable; cmd/vbench runs the full-scale
// versions. The store's own speed is measured by benchmark/ (see
// BENCHMARK.json); the two substrate benchmarks at the end time what its
// ladder does not: scene rendering, and the operators outside Query A.
package repro_test

import (
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/focusmodel"
	"repro/internal/ops"
	"repro/internal/vidsim"
)

const benchClip = 120 // profiling clip frames for figure benchmarks

func BenchmarkFig3aCodingSpeedSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3a("tucson", 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3bKeyframeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3b("tucson", 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4KnobImpacts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4(experiments.NewEnv(benchClip))
	}
}

func BenchmarkFig5DisparateCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5(experiments.NewEnv(benchClip))
	}
}

func BenchmarkFig6RetrievalBottleneck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6(experiments.NewEnv(benchClip))
	}
}

func BenchmarkTable3Configuration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(experiments.NewEnv(benchClip)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4IngestBudgetLadder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4(experiments.NewEnv(benchClip), []float64{0, 6, 3})
		for _, r := range rows {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

func BenchmarkFig11EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "bench-fig11-*")
		if err != nil {
			b.Fatal(err)
		}
		_, err = experiments.Fig11(experiments.NewEnv(benchClip), dir, 1, []float64{1, 0.9, 0.7})
		os.RemoveAll(dir)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12OperatorScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(experiments.NewEnv(benchClip)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13ErosionPlanning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(experiments.NewEnv(benchClip), []float64{0.6, 1.0}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14ProfilingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(60); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSFConfigStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SFConfig(experiments.NewEnv(benchClip), experiments.DefaultExhaustiveCFLimit); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFocusModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		focusmodel.Sweep(focusmodel.Alpha, []float64{0.01, 0.05, 0.1, 0.25, 0.5})
	}
}

// --- substrates benchmark/ does not time ---

func BenchmarkSceneRender(b *testing.B) {
	src := vidsim.NewSource(vidsim.Datasets[0])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Frame(i % 3000)
	}
}

func BenchmarkOperators(b *testing.B) {
	src := vidsim.NewSource(vidsim.Datasets[0])
	frames := src.Clip(0, 30)
	for _, op := range ops.All() {
		b.Run(op.Name(), func(b *testing.B) {
			var pixels int64
			for i := 0; i < b.N; i++ {
				_, st := op.Run(frames)
				pixels = st.Pixels
			}
			b.SetBytes(pixels)
		})
	}
}
