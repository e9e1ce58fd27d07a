// Command vbench regenerates the paper's evaluation tables and figures
// (§6-§7) against the reproduction's substrates. Each subcommand prints one
// artifact; "all" prints everything.
//
// Usage:
//
//	vbench [-clip frames] [-segments n] [-dir path] <artifact>
//
// Artifacts: fig3a fig3b fig4 fig5 fig6 table3 table4 fig11 fig12 fig13
// fig14 sfconfig focus all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/focusmodel"
)

var (
	clipFrames = flag.Int("clip", 300, "profiling clip length in frames (300 = the paper's 10s)")
	segments   = flag.Int("segments", 3, "segments ingested per dataset for fig11 (8s each)")
	dir        = flag.String("dir", "", "working directory for stores (default: temp)")
	seconds    = flag.Int("seconds", 60, "clip seconds for fig3 coding sweeps")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: vbench [flags] <artifact>\nartifacts: fig3a fig3b fig4 fig5 fig6 table3 table4 fig11 fig12 fig13 fig14 sfconfig focus all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "vbench:", err)
		os.Exit(1)
	}
}

func run(artifact string) error {
	env := experiments.NewEnv(*clipFrames)
	all := artifact == "all"
	did := false
	step := func(name string, fn func() error) error {
		if !all && artifact != name {
			return nil
		}
		did = true
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("[%s done in %.1fs]\n\n", name, time.Since(t0).Seconds())
		return nil
	}

	steps := []struct {
		name string
		fn   func() error
	}{
		{"fig3a", func() error {
			rows, err := experiments.Fig3a("tucson", *seconds)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderFig3a(rows))
			return nil
		}},
		{"fig3b", func() error {
			rows, err := experiments.Fig3b("tucson", *seconds)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderFig3b(rows))
			return nil
		}},
		{"fig4", func() error {
			fmt.Print(experiments.RenderFig4(experiments.Fig4(env)))
			return nil
		}},
		{"fig5", func() error {
			fmt.Print(experiments.RenderFig5(experiments.Fig5(env)))
			return nil
		}},
		{"fig6", func() error {
			fmt.Print(experiments.RenderFig6(experiments.Fig6(env)))
			return nil
		}},
		{"table3", func() error {
			cfg, err := experiments.Table3(env)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderTable3(cfg))
			return nil
		}},
		{"table4", func() error {
			rows := experiments.Table4(env, experiments.DefaultTable4Budgets)
			fmt.Print(experiments.RenderTable4(rows))
			return nil
		}},
		{"fig11", func() error {
			wd := *dir
			if wd == "" {
				var err error
				wd, err = os.MkdirTemp("", "vbench-fig11-*")
				if err != nil {
					return err
				}
				defer os.RemoveAll(wd)
			}
			res, err := experiments.Fig11(env, wd, *segments, []float64{1, 0.95, 0.9, 0.8})
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderFig11(res))
			return nil
		}},
		{"fig12", func() error {
			rows, err := experiments.Fig12(env)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderFig12(rows))
			return nil
		}},
		{"fig13", func() error {
			budgets, err := experiments.Fig13(env, []float64{0.4, 0.7, 0.8, 1.0})
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderFig13(budgets))
			return nil
		}},
		{"fig14", func() error {
			rows, err := experiments.Fig14(*clipFrames)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderFig14(rows))
			return nil
		}},
		{"sfconfig", func() error {
			res, err := experiments.SFConfig(env, 10)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderSFConfig(res))
			return nil
		}},
		{"focus", func() error {
			rows := focusmodel.Sweep(focusmodel.Alpha, []float64{0.01, 0.1, 0.5})
			fmt.Print(focusmodel.Render(focusmodel.Alpha, rows, focusmodel.DefaultIngestCosts()))
			return nil
		}},
	}
	for _, s := range steps {
		if err := step(s.name, s.fn); err != nil {
			return err
		}
	}
	if !did {
		return fmt.Errorf("unknown artifact %q", artifact)
	}
	return nil
}
