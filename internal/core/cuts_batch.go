// Lockstep cut generation for wafer column groups.  The timing model is
// linear in dose, so a tangent (path) cut derived at ANY member's dose
// iterate is globally valid: its coefficients come from the shared
// sensitivity model and its nominal term is the dose-independent path
// delay.  Members of a column group therefore share ONE cut pool, and
// by syncing every member to the same pool snapshot at the top of each
// round their constraint matrices stay bitwise identical — which is
// exactly what qp.SolveBatchCtx validates before collapsing the round's
// per-member QP solves into one lockstep batch whose x-steps are
// multi-RHS triangular solves against a single shared LDLᵀ factor.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/qp"
)

// solveTauGroup runs one cutting-plane probe for every member of a
// column group in lockstep rounds against the members' shared cut pool.
// All members must borrow the same base compilation (identical golden,
// order, objective structure) and share one cutPool; only bounds and
// linear terms may differ.  It returns per-member model objectives and
// feasibility flags, indexed like css.  Unlike solveTau there is no ξ
// budget cut-off: wafer probes run at the fixed common τ̄.
//
// A member whose linear-model clock period reaches τ̄ freezes — later
// rounds (driven by its slower siblings) no longer move its iterate,
// which is sound because convergence is verified on the full arrival
// propagation, not on the cut subset.  When any member's persistent
// solver must be rebuilt (infeasibility certificate or stall retry),
// every member's solver is reset with it: a lone rebuild would
// re-equilibrate against a different row count than its siblings and
// break the shared-factor validation for the rest of the run.
func solveTauGroup(ctx context.Context, css []*cutSolver, tau float64) (objs []float64, feas []bool, err error) {
	rec := obs.From(ctx)
	for _, cs := range css {
		cs.rec = rec
		cs.tangentOK = false
	}
	lead := css[0]
	pool := lead.pool
	c := lead.comp
	opt := lead.opt
	tolPs := opt.CutTolPs
	if tolPs <= 0 {
		tolPs = 2e-4 * c.Golden.MCT
	}
	maxRounds := opt.CutRounds
	if maxRounds <= 0 {
		maxRounds = 60
	}
	perRound := opt.CutsPerRound
	if perRound <= 0 {
		perRound = 64
	}

	nb := len(css)
	objs = make([]float64, nb)
	feas = make([]bool, nb)
	done := make([]bool, nb)
	liveIdx := make([]int, 0, nb)
	solvers := make([]*qp.Solver, 0, nb)

	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("core: cut probe canceled at round %d: %w", round, err)
		}
		liveIdx = liveIdx[:0]
		for i := range css {
			if !done[i] {
				liveIdx = append(liveIdx, i)
			}
		}
		if len(liveIdx) == 0 {
			return objs, feas, nil
		}
		// One snapshot per round: every live member syncs to the same
		// cut rows in the same order, keeping their matrices bitwise
		// identical for the batch validation.
		snap := pool.snapshot()
		solvers = solvers[:0]
		for _, i := range liveIdx {
			cs := css[i]
			cs.rounds++
			rec.Add("core/cut_rounds", 1)
			if err := cs.ensure(tau, snap); err != nil {
				return nil, nil, err
			}
			solvers = append(solvers, cs.solver)
		}
		results, err := qp.SolveBatchCtx(ctx, solvers)
		if err != nil {
			return nil, nil, err
		}
		resetAny := false
		for k, i := range liveIdx {
			cs := css[i]
			res := results[k]
			cs.solves++
			if res.Status == qp.PrimalInfeasible {
				cs.resetSolver() // certificate duals would poison warm starts
				resetAny = true
				done[i] = true
				continue
			}
			if res.Status != qp.Solved && cs.solver.MaxViolation(res.X) > 0.2 {
				// Same fresh-solver retry as solveTau, run solo: the
				// stalled member leaves the lockstep for this round.
				solver, err := qp.NewSolver(cs.prob, cs.opt.QP)
				if err != nil {
					return nil, nil, err
				}
				if err := solver.WarmStart(res.X, res.Y); err != nil {
					return nil, nil, err
				}
				res2, err := solver.SolveCtx(ctx)
				cs.solves++
				if err != nil {
					return nil, nil, err
				}
				viol := solver.MaxViolation(res2.X)
				cs.resetSolver()
				resetAny = true
				if res2.Status == qp.PrimalInfeasible {
					done[i] = true
					continue
				}
				if res2.Status != qp.Solved && viol > 0.5 {
					return nil, nil, fmt.Errorf("core: cut QP did not converge (τ=%.1f, round %d, viol %.3g)",
						tau, round, viol)
				}
				res = res2
			}
			cs.saveDuals(res.Y)
			copy(cs.x, res.X)
			cs.clampVars()
			objs[i] = cs.objective(cs.x)
			cs.recordTangent(tau, objs[i], res.Y)
			delta := cs.deltaFn(cs.x)
			_, mct := linearArrivalsOrder(c.Golden, c.order, cs.arcTab(), delta)
			if mct <= tau+tolPs {
				done[i] = true
				feas[i] = true
				continue
			}
			// Violated path cuts from this member's iterate, appended in
			// member order so the shared pool grows deterministically.
			added := 0
			for _, p := range cs.topPaths(delta, perRound) {
				if p.Delay <= tau+tolPs/2 {
					break // paths arrive in non-increasing delay order
				}
				if pool.add(cs.makeCut(p, cs.x)) {
					added++
				}
			}
			rec.Add("core/cuts_added", int64(added))
			rec.Set("core/cut_pool_size", float64(pool.size()))
			if added == 0 {
				// Every violating path is already pooled yet the QP
				// solution still violates.  When the pool grew past the
				// snapshot this member solved against (a sibling added the
				// cuts this very round), that is no stall — the next round
				// re-solves against them.  Only a member that saw the full
				// pool and still cannot progress is stalled; accept if the
				// miss is within the solver tolerance floor.
				if mct <= tau+5*tolPs {
					done[i] = true
					feas[i] = true
					continue
				}
				if pool.size() > len(snap) {
					continue
				}
				return nil, nil, fmt.Errorf("core: cut generation stalled at τ=%.1f (mct %.1f)", tau, mct)
			}
		}
		if resetAny {
			for _, cs := range css {
				cs.resetSolver()
			}
		}
	}
	return nil, nil, errors.New("core: cut generation exceeded round budget")
}
