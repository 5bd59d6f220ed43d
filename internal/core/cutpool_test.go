package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/qp"
	"repro/internal/sta"
)

// cutPoolProblem runs one cut-generation QP on a scaled AES-65 instance
// and assembles the resulting problem — box and smoothness prefix plus
// every path cut the solve generated.  This is the real matrix the
// x-step factors: a banded grid Laplacian with short dense-ish cut rows
// appended.
func cutPoolProblem(tb testing.TB) (*qp.Problem, float64) {
	tb.Helper()
	return cutPoolProblemScaled(tb, 0.04)
}

// cutPoolProblemScaled is cutPoolProblem at an explicit design scale —
// the parallel-factor tests need an instance wide enough (n ≥ 256
// columns) to clear the factor's serial-below threshold.
func cutPoolProblemScaled(tb testing.TB, scale float64) (*qp.Problem, float64) {
	tb.Helper()
	d, err := gen.Generate(gen.AES65().Scaled(scale))
	if err != nil {
		tb.Fatal(err)
	}
	golden, err := GoldenNominal(d, sta.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	model, err := FitModel(golden, false)
	if err != nil {
		tb.Fatal(err)
	}
	opt := DefaultOptions()
	c, err := Compile(golden, model, opt.CompileOptions())
	if err != nil {
		tb.Fatal(err)
	}
	cs := newCutSolverCompiled(c, opt)
	tau := 0.99 * golden.MCT
	if err := solveTauGroup(context.Background(), []*cutSolver{cs}, tau, math.Inf(1)); err != nil || !cs.probeOK {
		tb.Fatalf("cut solve: feasible=%v err=%v", cs.probeOK, err)
	}
	if cs.pool.size() == 0 {
		tb.Fatal("cut solve generated no cuts; instance too easy to exercise the pool")
	}
	// Grid cells with no gates carry zero curvature and zero cost, so
	// the optimizer leaves them anywhere inside the smoothness polytope —
	// the optimum is not unique there.  A ridge six orders below the real
	// curvature pins them without perturbing the meaningful coordinates.
	reg := 0.0
	for _, v := range cs.pd {
		if v > reg {
			reg = v
		}
	}
	reg *= 1e-6
	for j := range cs.pd {
		if cs.pd[j] == 0 {
			cs.pd[j] = reg
		}
	}
	return cs.buildProblem(tau, cs.pool.snapshot()), tau
}

// kktCertificate checks the first-order optimality certificate of
// (x, y) on p directly, like the qp package's property tests do: primal
// feasibility and KKT stationarity ‖Px + q + Aᵀy‖∞ within 1e-6, and dual
// sign consistency — a multiplier may only push at an active bound.
func kktCertificate(p *qp.Problem, x, y []float64) error {
	if v := p.MaxViolation(x); v > 1e-6 {
		return fmt.Errorf("constraint violation %g > 1e-6", v)
	}
	r := make([]float64, len(x))
	p.P.MulVec(r, x)
	for i := range r {
		r[i] += p.Q[i]
	}
	p.A.AddMulTVec(r, y)
	if g := qp.InfNorm(r); g > 1e-6 {
		return fmt.Errorf("KKT stationarity %g > 1e-6", g)
	}
	ax := make([]float64, p.A.M)
	p.A.MulVec(ax, x)
	const act, ytol = 1e-5, 1e-5
	for i := range ax {
		if p.L[i] == p.U[i] {
			continue // equality rows: any sign
		}
		loAct := ax[i]-p.L[i] < act
		hiAct := p.U[i]-ax[i] < act
		switch {
		case !loAct && !hiAct && math.Abs(y[i]) > ytol:
			return fmt.Errorf("inactive row %d has multiplier %g", i, y[i])
		case loAct && !hiAct && y[i] > ytol:
			return fmt.Errorf("lower-active row %d has positive multiplier %g", i, y[i])
		case hiAct && !loAct && y[i] < -ytol:
			return fmt.Errorf("upper-active row %d has negative multiplier %g", i, y[i])
		}
	}
	return nil
}

// TestCutPoolKKTCertificate solves the AES-derived cut-pool instance at
// tight tolerance and checks its first-order optimality certificate.
func TestCutPoolKKTCertificate(t *testing.T) {
	prob, _ := cutPoolProblem(t)
	set := qp.DefaultSettings()
	set.EpsAbs, set.EpsRel = 1e-9, 1e-9
	set.MaxIter = 400000
	res, err := qp.Solve(prob, set)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != qp.Solved {
		t.Fatalf("status %v after %d iterations", res.Status, res.Iters)
	}
	if err := kktCertificate(prob, res.X, res.Y); err != nil {
		t.Error(err)
	}
}

// BenchmarkCutPoolSolve times a full ADMM solve of the cut-pool matrix
// at the production tolerance.
func BenchmarkCutPoolSolve(b *testing.B) {
	prob, _ := cutPoolProblem(b)
	set := qp.DefaultSettings()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qp.Solve(prob, set); err != nil {
			b.Fatal(err)
		}
	}
}
