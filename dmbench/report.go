package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

// cpuModel reads the processor name for the provenance line.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// spanTotal sums the program's own spans named name anywhere in the
// recorder's span tree.
func spanTotal(spans []obs.SpanStat, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += time.Duration(s.TotalNS)
		}
		d += spanTotal(s.Children, name)
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics assembles the traced run's per-layer metrics.  Set-up
// layers are per set-up round, timed-phase layers per traced pass.
// inServer marks a workload whose stage calls run inside dmopt-serve,
// where the benchmark cannot wrap them.
func layerMetrics(b *bench, setupMark int, plain, traced phase, inServer bool) map[string]metric {
	setupSelf, _ := b.tr.layerTimes(0, setupMark)
	self, longest := b.tr.layerTimes(traced.marks[0], traced.marks[1])
	passes := float64(len(traced.walls))
	perSetup := func(name string) float64 { return setupSelf[name].Seconds() / setupRounds }
	perPass := func(name string) float64 { return self[name].Seconds() / passes }

	// Program counters, summed over the traced passes, per pass.
	ctr := map[string]float64{}
	var progSpans []obs.SpanStat
	for _, s := range traced.snaps {
		for k, v := range s.Counters {
			ctr[k] += float64(v) / passes
		}
		progSpans = append(progSpans, s.Spans...)
	}
	progPerPass := func(name string) float64 { return spanTotal(progSpans, name).Seconds() / passes }

	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	put("gen.busy_s", "s", perSetup("gen.GenerateCtx"))
	put("sta.golden_s", "s", perSetup("core.GoldenNominalCtx"))
	put("fit.busy_s", "s", perSetup("core.FitModelCtx"))
	compileS, solveQP, solveQCP := perSetup("core.CompileCtx"), perPass("core.SolveQP"), perPass("core.SolveQCP")
	compileHit := ratio(b.extra["compile.hits"], b.extra["compile.hits"]+b.extra["compile.misses"])
	if inServer {
		// The program's own spans time compile and solve there.
		compileS, solveQP, solveQCP = progPerPass("core/compile"), progPerPass("core/qp"), progPerPass("core/qcp")
		compileHit = ratio(ctr["core/compile_hits"], ctr["core/compile_hits"]+ctr["core/compile_misses"])
	}
	put("compile.busy_s", "s", compileS)
	put("compile.hit_ratio", "ratio", compileHit)
	put("sta.analyze_gate_evals", "count", ctr["sta/analyze_gate_evals"])
	put("sta.update_gate_evals", "count", ctr["sta/update_gate_evals"])
	put("sta.dirty_cone_gates", "count", ctr["sta/dirty_cone_gates"])

	put("solve.qp_s", "s", solveQP)
	put("solve.qcp_s", "s", solveQCP)
	put("solve.joint_s", "s", perPass("core.SolveQP/joint"))
	solveMax := 0.0
	for _, n := range []string{"core.SolveQP", "core.SolveQCP", "core.SolveQP/joint"} {
		solveMax = max(solveMax, longest[n].Seconds())
	}
	put("solve.max_s", "s", solveMax)
	put("cuts.rounds", "count", ctr["core/cut_rounds"])
	put("cuts.added", "count", ctr["core/cuts_added"])
	put("qcp.probes", "count", ctr["core/qcp_probes"])
	put("qcp.newton_steps", "count", ctr["core/tau_newton_steps"])
	put("qcp.bisect_fallbacks", "count", ctr["core/tau_bisect_fallbacks"])

	put("qp.iterations", "count", ctr["qp/iterations"])
	put("qp.factorizations", "count", ctr["qp/factorizations"])
	put("qp.factor_cache_hit_ratio", "ratio", ratio(ctr["qp/factor_cache_hits"],
		ctr["qp/factor_cache_hits"]+ctr["qp/factorizations"]+ctr["qp/refactorizations"]))
	put("qp.dense_flops", "flop", ctr["qp/dense_flops"])
	put("qp.restarts", "count", ctr["qp/restarts"])
	cols := b.extra["qp.supernode_cols_max"]
	for _, s := range traced.snaps {
		cols = max(cols, s.Gauges["qp/supernode_cols_max"])
	}
	put("qp.supernode_cols_max", "count", cols)
	put("qp.rhs_per_batch", "count", ratio(ctr["qp/solve_rhs"], ctr["qp/solve_batches"]))
	put("qp.batch_lockstep_solves", "count", ctr["qp/batch_lockstep_solves"])

	put("dosepl.busy_s", "s", perPass("core.DosePlCtx"))
	put("dosepl.swaps_tried", "count", ctr["core/dosepl_swaps_tried"])
	put("dosepl.swap_accept_ratio", "ratio", ratio(ctr["core/dosepl_swaps_accepted"], ctr["core/dosepl_swaps_tried"]))

	put("wafer.busy_s", "s", perPass("core.SolveWafer"))
	put("wafer.outer_iters", "count", ctr["wafer/outer_iters"])
	put("wafer.field_solves", "count", ctr["wafer/field_solves"])
	put("wafer.field_dedup_ratio", "ratio", ratio(ctr["wafer/field_dedup"], b.extra["wafer.fields"]))
	spread := 0.0
	if v := b.quality["wafer_spread_pct"]; len(v) > 0 {
		spread = mean(v)
	}
	put("wafer.spread_pct", "%", spread)

	for _, n := range []string{"serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms", "serve.run_p50_ms", "serve.run_p99_ms", "serve.transport_ms"} {
		put(n, "ms", b.extra[n])
	}
	put("serve.cache_hit_ratio", "ratio", ratio(ctr["serve/cache_hits"], ctr["serve/cache_hits"]+ctr["serve/cache_misses"]))
	put("serve.cache_evictions", "count", ctr["serve/cache_evictions"])
	put("serve.jobs_deduped", "count", ctr["serve/jobs_deduped"])

	wall := traced.total.Seconds()
	put("par.occupancy", "ratio", traced.cpu.Seconds()/(wall*float64(runtime.GOMAXPROCS(0))))
	put("obs.overhead_pct", "%", 100*(median(traced.walls)/median(plain.walls)-1))
	// Share of the traced passes' wall that the layer spans' self
	// times account for; the rest is the benchmark's own bookkeeping.
	put("trace.coverage", "ratio", 1-self["pass"].Seconds()/sum(traced.walls))

	put("go.alloc_mb", "MB", float64(traced.mem.TotalAlloc)/(1<<20)/passes)
	put("go.gc_cycles", "count", float64(traced.mem.NumGC)/passes)
	put("go.gc_pause_ms", "ms", float64(traced.mem.PauseTotalNs)/1e6/passes)
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
