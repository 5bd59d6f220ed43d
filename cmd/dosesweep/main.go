// Command dosesweep reproduces the uniform-dose sweeps of Tables II and
// III: it applies a flat poly-layer dose change to every cell of a
// design and reports golden MCT and leakage at each point, demonstrating
// that a uniform dose cannot improve timing without a leakage penalty.
//
// With -wafer it instead runs the full-wafer consensus co-optimization
// (Table IX): per-field sub-problems under a radial across-wafer CD
// fingerprint, coupled by shared cross-slit dose profiles and resolved
// with consensus-ADMM, reported against the uniform-dose and uncoupled
// per-field baselines.
//
// Usage:
//
//	dosesweep [-design AES-65] [-scale 0.15]
//	dosesweep -bias [-design AES-65] [-scale 0.15]
//	dosesweep -wafer [-design AES-65] [-scale 0.15] [-grid 10]
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/cli"
	"repro/internal/expt"
)

func main() {
	design := flag.String("design", "AES-65", "testcase: AES-65, JPEG-65, AES-90, JPEG-90")
	scale := flag.Float64("scale", 0.15, "design scale factor in (0,1]")
	wafer := flag.Bool("wafer", false, "run the full-wafer consensus co-optimization instead of the uniform sweep")
	bias := flag.Bool("bias", false, "sweep a uniform body-bias voltage instead of a uniform dose")
	grid := flag.Float64("grid", 10, "wafer mode: dose-map grid pitch in µm")
	com := cli.AddFlags("dosesweep")
	flag.Parse()
	com.Init()
	defer com.Close()

	start := time.Now()
	c := expt.New(expt.WithScale(*scale), expt.WithWorkers(com.Workers))
	if *wafer {
		r, err := c.WaferRunCtx(com.Context(), *design, *grid, expt.WaferGeometry())
		com.Check(err)
		fmt.Println(expt.WaferTable(*design, r).Format())
		fmt.Printf("across-wafer MCT spread: uniform %.3f%%  uncoupled %.3f%%  coupled %.4f%%\n",
			r.UniformSpreadPct, r.UncoupledSpreadPct, r.CoupledSpreadPct)
		fmt.Printf("τ̄ = %.1f ps over %d fields (%d consensus groups, %d outer iters, %d field solves) in %v\n",
			r.TauPs, len(r.Fields), r.Groups, r.OuterIters, r.FieldSolves, r.Runtime.Round(time.Millisecond))
		com.Finish("dosesweep -wafer "+*design, *scale, 0, com.Workers, time.Since(start))
		return
	}
	if *bias {
		rows, err := c.BiasSweepCtx(com.Context(), *design, expt.SweepBiases())
		com.Check(err)
		fmt.Printf("uniform body-bias sweep on %s (scale %.2f)\n", *design, *scale)
		fmt.Printf("%-10s %-10s %-9s %-13s %-9s\n", "bias (V)", "MCT (ns)", "imp (%)", "leak (µW)", "imp (%)")
		for _, r := range rows {
			fmt.Printf("%-10.2f %-10.3f %-9.2f %-13.1f %-9.2f\n",
				r.BiasV, r.MCTns, r.MCTImp, r.LeakUW, r.LeakImp)
		}
		com.Finish("dosesweep -bias "+*design, *scale, 0, com.Workers, time.Since(start))
		return
	}
	rows, err := c.DoseSweepCtx(com.Context(), *design, expt.SweepDoses())
	com.Check(err)
	fmt.Printf("uniform poly-layer dose sweep on %s (scale %.2f)\n", *design, *scale)
	fmt.Printf("%-10s %-10s %-9s %-13s %-9s\n", "dose (%)", "MCT (ns)", "imp (%)", "leak (µW)", "imp (%)")
	for _, r := range rows {
		fmt.Printf("%-10.1f %-10.3f %-9.2f %-13.1f %-9.2f\n",
			r.Dose, r.MCTns, r.MCTImp, r.LeakUW, r.LeakImp)
	}
	com.Finish("dosesweep "+*design, *scale, 0, com.Workers, time.Since(start))
}
