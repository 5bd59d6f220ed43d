package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sta"
)

// presets returns the Table I presets at the given scale, re-seeded by
// the design seed; design seed 0 keeps the paper presets.
func presets(designSeed int64, f float64) []gen.Preset {
	ps := gen.Presets()
	for i := range ps {
		ps[i].Seed += designSeed * 1_000_003
		ps[i] = ps[i].Scaled(f)
	}
	return ps
}

// prepared is one design's staged inputs: the design, its golden
// analysis and fitted model, and the compiled formulations by key.
type prepared struct {
	preset   gen.Preset
	design   *gen.Design
	golden   *sta.Result
	model    *core.Model
	compiled map[string]*core.Compiled
}

// prepare builds a design's inputs through the public stage entry
// points, one span per call, compiling one formulation per option set.
func prepare(ctx context.Context, b *bench, p gen.Preset, workers int, opts map[string]core.Options) (*prepared, error) {
	pr := &prepared{preset: p, compiled: map[string]*core.Compiled{}}
	err := b.call(ctx, "gen.GenerateCtx", func(ctx context.Context) (err error) {
		pr.design, err = gen.GenerateCtx(ctx, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	cfg := sta.DefaultConfig()
	cfg.Workers = workers
	err = b.call(ctx, "core.GoldenNominalCtx", func(ctx context.Context) (err error) {
		pr.golden, err = core.GoldenNominalCtx(ctx, pr.design, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = b.call(ctx, "core.FitModelCtx", func(ctx context.Context) (err error) {
		pr.model, err = core.FitModelCtx(ctx, pr.golden, false, workers)
		return err
	})
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(opts))
	for key := range opts {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		opt := opts[key]
		var c *core.Compiled
		err = b.call(ctx, "core.CompileCtx", func(ctx context.Context) (err error) {
			c, err = core.CompileCtx(ctx, pr.golden, pr.model, opt.CompileOptions())
			return err
		})
		if err != nil {
			return nil, err
		}
		pr.compiled[key] = c
	}
	return pr, nil
}

// dmOptions mirrors the tables' run options: grid g, an actuator mode
// ("dose", "bias" or "joint") and a worker budget.
func dmOptions(g float64, mode string, workers int) core.Options {
	opt := core.DefaultOptions()
	opt.G = g
	opt.Workers = workers
	switch mode {
	case "bias":
		opt.DoseOff = true
		opt.BiasGridUm = api.DefaultBiasGridUm
	case "joint":
		opt.BiasGridUm = api.DefaultBiasGridUm
	}
	return opt
}

// gridsFor is the paper's grid set per node (Table IV).
func gridsFor(p gen.Preset) []float64 {
	if p.Tech == "N90" {
		return []float64{5, 10, 50}
	}
	return []float64{5, 10, 30}
}

func optKey(g float64, mode string) string { return fmt.Sprintf("%s@%g", mode, g) }

// timed runs one solve as an operation: a span named name, its latency
// recorded, and the check's verdict counted.
func timed[T any](ctx context.Context, b *bench, name string, solve func(ctx context.Context) (T, error), verify func(T) error) (T, error) {
	var out T
	t0 := time.Now()
	err := b.call(ctx, name, func(ctx context.Context) (err error) {
		out, err = solve(ctx)
		return err
	})
	d := time.Since(t0)
	if err == nil {
		err = verify(out)
	}
	// The program keeps only the last solve's supernode width; read it
	// after every call to report the widest.
	if rec := obs.From(ctx); rec != nil {
		b.maxExtra("qp.supernode_cols_max", rec.Gauge("qp/supernode_cols_max"))
	}
	b.op(d, err)
	return out, err
}

// shuffled returns 0..n-1 in an order drawn from the workload seed.
// Every job of a batch pass is independent of the others, so the order
// changes no result: the pass digest must not depend on the seed.
func shuffled(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// --- tables-iv-x -------------------------------------------------------

// tablesIVX is Table IV (4 designs × 3 grids × {QP, QCP}, dose only)
// followed by Table X (4 designs × {dose, bias, joint} QP at
// τ = 0.99·nominal, G = 5 µm), serial.
type tablesIVX struct{ designs []*prepared }

func (*tablesIVX) workers() int { return 1 }

func (t *tablesIVX) setup(ctx context.Context, b *bench) error {
	t.designs = nil
	for _, p := range presets(b.designSeed, scale) {
		opts := map[string]core.Options{}
		for _, g := range gridsFor(p) {
			opts[optKey(g, "dose")] = dmOptions(g, "dose", 1)
		}
		for _, mode := range []string{"bias", "joint"} {
			opts[optKey(5, mode)] = dmOptions(5, mode, 1)
		}
		pr, err := prepare(ctx, b, p, 1, opts)
		if err != nil {
			return err
		}
		t.designs = append(t.designs, pr)
	}
	b.compileUse(len(t.designs)*5, len(t.designs)*9)
	return nil
}

// qpRow runs one Table IV/X QP at τ = 0.99·nominal MCT and checks that
// golden leakage came in below nominal.
func qpRow(ctx context.Context, b *bench, pr *prepared, g float64, mode string) (*core.Result, error) {
	c := pr.compiled[optKey(g, mode)]
	name := "core.SolveQP"
	if mode == "joint" {
		name = "core.SolveQP/joint"
	}
	return timed(ctx, b, name, func(ctx context.Context) (*core.Result, error) {
		return core.SolveQP(ctx, core.QPRequest{Compiled: c, Opt: dmOptions(g, mode, 1), TauPs: 0.99 * c.Golden.MCT})
	}, func(r *core.Result) error {
		b.sign(fmt.Sprintf("%s/%s/qp/%g", pr.preset.Name, mode, g), r.Nominal.MCTps, r.Nominal.LeakUW, r.Golden.MCTps, r.Golden.LeakUW)
		b.note("leak_saving_pct", 100*(1-r.Golden.LeakUW/r.Nominal.LeakUW))
		return check(r.Golden.LeakUW < r.Nominal.LeakUW, "%s %s QP G=%g: golden leakage %.6g µW not below nominal %.6g µW",
			pr.preset.Name, mode, g, r.Golden.LeakUW, r.Nominal.LeakUW)
	})
}

// qcpChain runs a design's Table IV QCP rows over its grids in order,
// each warm-bracketed by the previous grid's clock period as in the
// Table IV harness, and checks golden Δleakage against ξ.
func qcpChain(ctx context.Context, b *bench, pr *prepared) {
	seedTau := 0.0
	for _, g := range gridsFor(pr.preset) {
		c := pr.compiled[optKey(g, "dose")]
		opt := dmOptions(g, "dose", 1)
		opt.SeedTau = seedTau
		r, _ := timed(ctx, b, "core.SolveQCP", func(ctx context.Context) (*core.Result, error) {
			return core.SolveQCP(ctx, core.QCPRequest{Compiled: c, Opt: opt})
		}, func(r *core.Result) error {
			b.sign(fmt.Sprintf("%s/dose/qcp/%g", pr.preset.Name, g), r.Golden.MCTps, r.Golden.LeakUW)
			b.note("mct_gain_pct", 100*(1-r.Golden.MCTps/r.Nominal.MCTps))
			dLeakNW := 1000 * (r.Golden.LeakUW - r.Nominal.LeakUW)
			return check(dLeakNW <= opt.XiNW, "%s QCP G=%g: golden Δleakage %.6g nW exceeds ξ = %g nW",
				pr.preset.Name, g, dLeakNW, opt.XiNW)
		})
		if r != nil {
			seedTau = r.PredMCT
		}
	}
}

// actuatorRows runs a design's Table X rows and checks that the joint
// leakage is at most that of either single actuator.
func actuatorRows(ctx context.Context, b *bench, pr *prepared) {
	leak := map[string]float64{}
	for _, mode := range []string{"dose", "bias", "joint"} {
		r, err := qpRow(ctx, b, pr, 5, mode)
		if r == nil {
			return
		}
		leak[mode] = r.Golden.LeakUW
		if mode == "joint" && err == nil {
			b.fail(check(leak["joint"] <= min(leak["dose"], leak["bias"]),
				"%s joint QP: golden leakage %.6g µW above min(dose %.6g, bias %.6g)",
				pr.preset.Name, leak["joint"], leak["dose"], leak["bias"]))
		}
	}
}

func (t *tablesIVX) pass(ctx context.Context, b *bench) error {
	// Units of independent work: every Table IV QP row, each design's
	// QCP chain and each design's Table X rows.
	var units []func()
	for _, pr := range t.designs {
		pr := pr
		for _, g := range gridsFor(pr.preset) {
			g := g
			units = append(units, func() { _, _ = qpRow(ctx, b, pr, g, "dose") })
		}
		units = append(units, func() { qcpChain(ctx, b, pr) }, func() { actuatorRows(ctx, b, pr) })
	}
	for _, i := range shuffled(b.seed, len(units)) {
		units[i]()
	}
	return ctx.Err()
}

// --- dosepl ------------------------------------------------------------

// dosePl runs, per design, the QP at τ = nominal MCT and then dosePl
// with the paper's defaults, serial.
type dosePl struct{ designs []*prepared }

func (*dosePl) workers() int { return 1 }

func (d *dosePl) setup(ctx context.Context, b *bench) error {
	d.designs = nil
	for _, p := range presets(b.designSeed, scale) {
		pr, err := prepare(ctx, b, p, 1, map[string]core.Options{optKey(5, "dose"): dmOptions(5, "dose", 1)})
		if err != nil {
			return err
		}
		d.designs = append(d.designs, pr)
	}
	b.compileUse(len(d.designs), len(d.designs))
	return nil
}

func (d *dosePl) pass(ctx context.Context, b *bench) error {
	for _, i := range shuffled(b.seed, len(d.designs)) {
		d.placeDesign(ctx, b, d.designs[i])
	}
	return ctx.Err()
}

func (d *dosePl) placeDesign(ctx context.Context, b *bench, pr *prepared) {
	opt := dmOptions(5, "dose", 1)
	c := pr.compiled[optKey(5, "dose")]
	dm, err := timed(ctx, b, "core.SolveQP", func(ctx context.Context) (*core.Result, error) {
		return core.SolveQP(ctx, core.QPRequest{Compiled: c, Opt: opt, TauPs: c.Golden.MCT})
	}, func(r *core.Result) error {
		b.sign(pr.preset.Name+"/qp", r.Golden.MCTps, r.Golden.LeakUW)
		b.note("leak_saving_pct", 100*(1-r.Golden.LeakUW/r.Nominal.LeakUW))
		return nil
	})
	if err != nil {
		return
	}
	// dosePl moves cells in place: give it a private copy of the
	// placement so every pass starts from the generated one.
	golden := api.Artifacts{Golden: pr.golden}.WithPrivatePlacement().Golden
	_, _ = timed(ctx, b, "core.DosePlCtx", func(ctx context.Context) (*core.DosePlResult, error) {
		return core.DosePlCtx(ctx, golden, dm.Layers, opt, core.DefaultDosePlOptions())
	}, func(dp *core.DosePlResult) error {
		b.sign(pr.preset.Name+"/dosepl", dp.After.MCTps, dp.After.LeakUW, float64(dp.SwapsAccepted))
		b.note("mct_gain_pct", 100*(1-dp.After.MCTps/dm.Nominal.MCTps))
		pl := golden.In.Pl
		if err := pl.InBounds(); err != nil {
			return fmt.Errorf("%s dosePl: %w", pr.preset.Name, err)
		}
		if n := pl.OverlapCount(); n != 0 {
			return fmt.Errorf("%s dosePl: %d overlapping cells", pr.preset.Name, n)
		}
		return check(dp.After.MCTps <= dm.Golden.MCTps, "%s dosePl: MCT %.6g ps above the DMopt MCT %.6g ps",
			pr.preset.Name, dp.After.MCTps, dm.Golden.MCTps)
	})
}

// --- wafer -------------------------------------------------------------

// wafer is the Table IX consensus on JPEG-65 with the radial
// fingerprint, at G = 10 µm and workers = nproc.
type wafer struct{ design *prepared }

func (*wafer) workers() int { return runtime.NumCPU() }

func (w *wafer) setup(ctx context.Context, b *bench) error {
	p := presets(b.designSeed, scale)[1] // JPEG-65
	pr, err := prepare(ctx, b, p, w.workers(), map[string]core.Options{optKey(10, "dose"): dmOptions(10, "dose", w.workers())})
	w.design = pr
	b.compileUse(1, 1)
	return err
}

func (w *wafer) pass(ctx context.Context, b *bench) error {
	c := w.design.compiled[optKey(10, "dose")]
	_, _ = timed(ctx, b, "core.SolveWafer", func(ctx context.Context) (*core.WaferResult, error) {
		return core.SolveWafer(ctx, core.WaferRequest{Compiled: c, Opt: dmOptions(10, "dose", w.workers()), Wafer: expt.WaferGeometry()})
	}, func(r *core.WaferResult) error {
		b.note("wafer_spread_pct", r.CoupledSpreadPct)
		for _, f := range r.Fields {
			b.sign(fmt.Sprintf("field/%d/%d", f.Col, f.Row), f.Uniform.MCTps, f.Uncoupled.MCTps, f.Coupled.MCTps, f.Coupled.LeakUW)
			b.note("mct_gain_pct", 100*(1-f.Coupled.MCTps/f.Uniform.MCTps))
			b.note("leak_saving_pct", 100*(1-f.Coupled.LeakUW/r.NomLeakUW))
		}
		b.setExtra("wafer.fields", float64(len(r.Fields)))
		return check(r.CoupledSpreadPct < r.UncoupledSpreadPct && r.CoupledSpreadPct < r.UniformSpreadPct,
			"wafer: coupled spread %.4g%% not below uncoupled %.4g%% and uniform %.4g%%",
			r.CoupledSpreadPct, r.UncoupledSpreadPct, r.UniformSpreadPct)
	})
	return ctx.Err()
}
