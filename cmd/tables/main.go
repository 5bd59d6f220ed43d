// Command tables regenerates the paper's evaluation tables and figures
// on the synthetic testcases.
//
// Usage:
//
//	tables [-scale 0.15] [-k 2000] [-md] [-which all|I,II,III,IV,V,VI,VII,VIII,fig2,fig3,fig4,fig5,fig6,fig10]
//	tables -which ix   # wafer consensus table (opt-in)
//	tables -which x    # actuator ablation table (opt-in)
//
// -scale 1 reproduces the full Table I design sizes (minutes of CPU);
// smaller scales shrink the designs proportionally for quick runs.
//
// -stats prints a run-telemetry tree (stage spans, solver/STA counters)
// to stderr; -bench-json FILE additionally writes the same telemetry as
// a schema-versioned machine-readable benchmark report.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/expt"
)

func main() {
	scale := flag.Float64("scale", 0.15, "design scale factor in (0,1]; 1 = full Table I sizes")
	k := flag.Int("k", 2000, "top-path count for path-based experiments (paper: 10000)")
	md := flag.Bool("md", false, "emit GitHub-flavored markdown instead of aligned text")
	which := flag.String("which", "all", "comma-separated experiment list, 'all', or opt-ins 'ix' (wafer) / 'x' (actuator ablation)")
	fig10Design := flag.String("fig10", "AES-65", "design for the Fig. 10 slack profiles")
	com := cli.AddFlags("tables")
	flag.Parse()
	com.Init()
	defer com.Close()

	ctx := com.Context()
	c := expt.New(expt.WithScale(*scale), expt.WithTopK(*k), expt.WithWorkers(com.Workers))
	sel := map[string]bool{}
	for _, w := range strings.Split(strings.ToLower(*which), ",") {
		sel[strings.TrimSpace(w)] = true
	}
	want := func(name string) bool { return sel["all"] || sel[strings.ToLower(name)] }

	emit := func(t *expt.Table, err error) {
		com.Check(err)
		if *md {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.Format())
		}
	}

	start := time.Now()
	if want("fig2") {
		emit(expt.Fig2(), nil)
	}
	if want("fig3") {
		emit(expt.Fig3(), nil)
	}
	if want("fig4") {
		emit(expt.Fig4(), nil)
	}
	if want("fig5") {
		emit(expt.Fig5(), nil)
	}
	if want("fig6") {
		emit(expt.Fig6(), nil)
	}
	if want("i") {
		emit(c.TableICtx(ctx))
	}
	if want("ii") {
		emit(c.TableIICtx(ctx))
	}
	if want("iii") {
		emit(c.TableIIICtx(ctx))
	}
	if want("iv") {
		t, _, err := c.TableIVCtx(ctx)
		emit(t, err)
	}
	if want("v") {
		t, _, err := c.TableVCtx(ctx)
		emit(t, err)
	}
	if want("vi") {
		t, _, err := c.TableVICtx(ctx)
		emit(t, err)
	}
	if want("vii") {
		emit(c.TableVIICtx(ctx))
	}
	if want("viii") {
		emit(c.TableVIIICtx(ctx))
	}
	if want("fig10") {
		emit(c.Fig10Ctx(ctx, *fig10Design, 24))
	}
	// The wafer extension is opt-in (-which ix): 88 coupled field
	// solves are well beyond the single-field tables' budget.
	if sel["ix"] {
		emit(c.TableIXCtx(ctx, *fig10Design))
	}
	// The actuator ablation is opt-in (-which x): it exercises the
	// body-bias extension rather than a paper table.
	if sel["x"] {
		t, _, err := c.TableXCtx(ctx)
		emit(t, err)
	}
	wall := time.Since(start)
	fmt.Fprintf(os.Stderr, "tables: done in %v (scale %.2f)\n", wall.Round(time.Millisecond), *scale)
	com.Finish("tables -which "+*which, *scale, *k, com.Workers, wall)
}
