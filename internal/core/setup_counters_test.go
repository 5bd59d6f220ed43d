package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
)

// TestSymbolicPassesPerSetup pins the set-up cost model of the cut
// engine on an AES-65 QCP and a QP below the nominal clock period, each
// on its own persistent solver: every LDLᵀ factor build and every cut-row
// append runs the symbolic analysis exactly once, whether or not the
// append re-orders, so qp/symbolic_passes equals builds plus appends.
func TestSymbolicPassesPerSetup(t *testing.T) {
	d, err := gen.Generate(gen.AES65().Scaled(0.08))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	opt := DefaultOptions()
	golden, err := GoldenNominalCtx(ctx, d, opt.STA)
	if err != nil {
		t.Fatal(err)
	}
	model, err := FitModelCtx(ctx, golden, opt.BothLayers, opt.Workers)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := CompileCtx(ctx, golden, model, opt.CompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveQCP(ctx, QCPRequest{Compiled: comp, Opt: opt}); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveQP(ctx, QPRequest{Compiled: comp, Opt: opt, TauPs: 0.97 * golden.MCT}); err != nil {
		t.Fatal(err)
	}
	c := rec.Snapshot().Counters
	builds, appends := c["core/solver_rebuilds"], c["core/solver_row_appends"]
	sym, reorders := c["qp/symbolic_passes"], c["qp/reorders"]
	t.Logf("builds %d, appends %d, symbolic passes %d, reorders %d", builds, appends, sym, reorders)
	if appends == 0 || reorders == 0 {
		t.Fatalf("instance too small to exercise the append path: %d appends, %d reorders", appends, reorders)
	}
	if sym != builds+appends {
		t.Errorf("qp/symbolic_passes = %d, want builds + appends = %d + %d", sym, builds, appends)
	}
	if reorders > appends {
		t.Errorf("qp/reorders = %d exceeds the %d appends", reorders, appends)
	}
}
