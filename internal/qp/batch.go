// Lockstep batched ADMM.  SolveBatchCtx advances a family of Solvers
// whose scaled matrices are bitwise identical through their ADMM
// iterations in lockstep, on the one ADMM loop (solveFamily), so every
// x-step is one multi-RHS solve against the lead solver's LDLᵀ factor.
// The wafer consensus loop is the producer of such families: every
// field of a column group shares P, A and the equilibration by
// construction and differs only in its bounds (the bias-shifted box)
// and the moving penalty target q — neither enters K = P + σI + ρAᵀA.
// The multi-RHS solve is bit-identical to per-RHS solves at any worker
// count (see ldlt.go), so a batch solve is reproducible for every
// worker count — the property TestWaferWorkerBitIdentity pins end to
// end.
package qp

import (
	"context"
	"errors"
	"math"

	"repro/internal/obs"
)

// batchCompatible reports whether the family can share the lead
// solver's factor: identical dimensions and settings, bitwise-identical
// scaled matrices and scalings, and equal ρ.  Bounds l/u, linear terms
// q and iterate state are free to differ.  The check is O(nnz) — trivial
// against the factorization and solve work it guards — and failing it
// is never an error: the caller degrades to sequential per-member
// solves.
func batchCompatible(ss []*Solver) bool {
	h := ss[0]
	for _, s := range ss[1:] {
		if s.n != h.n || s.m != h.m || s.set != h.set {
			return false
		}
		if math.Float64bits(s.rho) != math.Float64bits(h.rho) ||
			math.Float64bits(s.cinv) != math.Float64bits(h.cinv) {
			return false
		}
		if !floatBitsEqual(s.d, h.d) || !floatBitsEqual(s.e, h.e) {
			return false
		}
		if !csrEqual(s.p, h.p) || !csrEqual(s.a, h.a) {
			return false
		}
	}
	return true
}

// SolveBatchCtx runs ADMM on every solver as one lockstep family (see
// solveFamily), sharing the lead solver's factorization for the
// per-iteration x-steps when the family passes the bitwise
// compatibility validation; otherwise it degrades to sequential
// SolveCtx calls (counted as qp/batch_fallbacks).  The returned slice is
// index-aligned with solvers.  A canceled context or a zero pivot in
// the shared factor stops every member within one iteration, returning
// the usual wrapped error; on the sequential path the first error
// aborts the remaining members.
func SolveBatchCtx(ctx context.Context, solvers []*Solver) ([]*Result, error) {
	if len(solvers) == 0 {
		return nil, nil
	}
	for i, s := range solvers {
		for _, t := range solvers[:i] {
			if s == t {
				return nil, errors.New("qp: solver batch lists the same solver twice")
			}
		}
	}
	results := make([]*Result, len(solvers))
	if len(solvers) > 1 && !batchCompatible(solvers) {
		obs.From(ctx).Add("qp/batch_fallbacks", 1)
		for i, s := range solvers {
			res, err := s.SolveCtx(ctx)
			results[i] = res
			if err != nil {
				return results, err
			}
		}
		return results, nil
	}
	return results, solveFamily(ctx, solvers, results)
}
