package qp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomBoxQP builds a strictly convex box-and-coupling QP large enough
// to push the blocked mat-vec kernel and the parallel factorization
// through several worker blocks.
func randomBoxQP(n, m int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	pt := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		pt.Add(i, i, 1+rng.Float64())
		if i+1 < n {
			v := 0.2 * rng.Float64()
			pt.Add(i, i+1, v)
			pt.Add(i+1, i, v)
		}
	}
	at := NewTriplet(m+n, n)
	l := make([]float64, m+n)
	u := make([]float64, m+n)
	for r := 0; r < m; r++ {
		for k := 0; k < 4; k++ {
			at.Add(r, rng.Intn(n), rng.NormFloat64())
		}
		l[r] = -5
		u[r] = 5
	}
	for i := 0; i < n; i++ {
		at.Add(m+i, i, 1)
		l[m+i] = -1
		u[m+i] = 1
	}
	q := make([]float64, n)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	return &Problem{P: pt.Compile(), Q: q, A: at.Compile(), L: l, U: u}
}

// TestSolveWorkersEquivalent asserts the solve trajectory — not just
// the solution — is bit-identical for every worker count: same iterate,
// same iteration count.
func TestSolveWorkersEquivalent(t *testing.T) {
	prob := randomBoxQP(400, 120, 7)
	set := DefaultSettings()
	set.Workers = 1
	ref, err := Solve(prob, set)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Status != Solved {
		t.Fatalf("reference status %v", ref.Status)
	}
	for _, w := range []int{2, 3, 8, 0} {
		set.Workers = w
		res, err := Solve(prob, set)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.Iters != ref.Iters {
			t.Fatalf("workers=%d: iters %d != %d", w, res.Iters, ref.Iters)
		}
		if math.Float64bits(res.Obj) != math.Float64bits(ref.Obj) {
			t.Fatalf("workers=%d: obj %v != %v", w, res.Obj, ref.Obj)
		}
		for i := range res.X {
			if math.Float64bits(res.X[i]) != math.Float64bits(ref.X[i]) {
				t.Fatalf("workers=%d: x[%d] %v != %v (not bit-identical)", w, i, res.X[i], ref.X[i])
			}
		}
	}
}

// TestSolveCtxCanceledAtIterationBoundary asserts the cancellation
// property: a canceled context stops the ADMM loop at the very next
// iteration boundary (zero completed iterations for a pre-canceled
// context) and surfaces a wrapped context.Canceled.
func TestSolveCtxCanceledAtIterationBoundary(t *testing.T) {
	prob := randomBoxQP(100, 30, 11)
	s, err := NewSolver(prob, DefaultSettings())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.SolveCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
	if res == nil {
		t.Fatal("canceled solve must still return the best iterate")
	}
	if res.Iters != 0 {
		t.Fatalf("pre-canceled solve completed %d iterations, want 0", res.Iters)
	}
}
