// Cutting-plane solve stage: the engine for both DMopt formulations.
// It solves the mathematical program of Eqs. 2-12 but represents the
// timing constraints by path cuts generated on demand instead of one
// arrival variable per gate:
//
//	nom(π) + Σ_{p∈π} (A_p·Ds·dP_{g(p)} + B_p·Ds·dA_{g(p)}) ≤ τ
//
// for each path π whose linear-model delay exceeds τ at the current
// dose iterate.  Arrival-time variables — which carry no objective
// curvature and slow the first-order QP solver badly — disappear; the
// QP retains only dose variables with strictly convex leakage cost.
// Cuts are valid for every clock-period probe, so the QCP bisection
// shares one growing pool.
//
// A cutSolver borrows the immutable *Compiled formulation (fixed
// box/smoothness rows, objective terms, grid maps) and owns the per-run
// mutable state: the cut pool, the warm-start iterate, and the
// persistent qp.Solver.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/dosemap"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/qp"
	"repro/internal/sta"
)

// cut is one path constraint over the dose variables.
type cut struct {
	cols []int
	vals []float64
	nom  float64 // dose-independent path delay in ps
}

// cutPool is the growing pool of path cuts, shared by every clock-period
// probe (a path cut is valid for all τ) and, on the wafer path, by every
// member of a column group.  Its owner adds cuts serially.
type cutPool struct {
	cuts []cut
	seen map[string]bool
	key  []byte // signature scratch
}

// snapshot returns the current cuts.  The returned slice is never
// mutated in place (add only appends), so it stays valid as the pool
// grows.
func (p *cutPool) snapshot() []cut {
	return p.cuts[:len(p.cuts):len(p.cuts)]
}

// add appends c unless an equivalent cut is already pooled; it reports
// whether the cut was new.
func (p *cutPool) add(c cut) bool {
	p.key = c.appendSignature(p.key[:0])
	if p.seen[string(p.key)] { // the compiler looks this up without allocating
		return false
	}
	p.seen[string(p.key)] = true
	p.cuts = append(p.cuts, c)
	return true
}

func (p *cutPool) size() int { return len(p.cuts) }

type cutSolver struct {
	comp *Compiled
	opt  Options

	nG   int
	nVar int
	// clampN bounds the post-solve box clamp: only variables below this
	// index are dose variables subject to [DoseLo, DoseHi].  The wafer
	// consensus formulation appends auxiliary slit-profile variables
	// (column means and deviations) that must not be clamped.
	clampN int

	// pd is the cutSolver's own copy of the compiled objective diagonal
	// (tests perturb it in place to build degenerate instances); q is the
	// shared compiled linear term, read-only by convention.
	pd, q []float64
	pool  *cutPool
	x     []float64 // warm-start iterate

	// Persistent solver state.  The assembled problem and its qp.Solver
	// are kept across cut rounds and bisection probes: when only τ moves
	// the cut-row bounds are updated in place (no CSR rebuild, no
	// re-equilibration), and when the pool grows the problem is rebuilt
	// with the previous duals zero-padded onto the new rows — cut rows
	// are appended after the fixed box/smoothness prefix, so saved dual
	// indices stay valid.  Warm duals are what keeps the ADMM iteration
	// count low round over round; a cold y resets the active-set
	// estimate and regularly forced 6x-budget retries.
	solver    *qp.Solver
	prob      *qp.Problem
	builtCuts int
	builtTau  float64
	y         []float64 // last duals (unscaled), aligned to prob rows

	rounds, solves int

	// Outcome of this member's latest probe (solveTauGroup): the model
	// objective in nW (0 when the probe was infeasible), whether it met
	// τ within the ξ budget, and whether it has finished its rounds.
	probeObj  float64
	probeOK   bool
	probeDone bool

	// Group scratch of the probes this cutSolver leads, reused so a solo
	// probe allocates no bookkeeping: the live members of a round and
	// their qp solvers.
	groupLive    []*cutSolver
	groupSolvers []*qp.Solver

	// Tangent information of the most recent converged cut round: the
	// probed clock period, the model objective there, and the derivative
	// estimate dminLeak/dτ = −Σ y_i over the cut rows (each cut's upper
	// bound is τ − nom, so the bound moves one-for-one with τ and the
	// dual sum prices the move).  The QCP outer loop turns this into a
	// warm-started Newton/secant step on τ; tangentOK is false until a
	// round converges and is reset at every probe entry, so stale probes
	// never feed a step.
	tangentTau   float64
	tangentObj   float64
	tangentSlope float64
	tangentOK    bool

	// rec is the telemetry recorder, refreshed from the context at each
	// probe entry (ensure has no context of its own).
	rec *obs.Recorder

	// arcs tabulates the golden arc delays for this run's cut rounds,
	// built on first use (see arcTab).  acc and hit are makeCut's dense
	// per-column accumulator, all zero/false between calls, and touched
	// its column list.
	arcs    *arcTable
	acc     []float64
	hit     []bool
	touched []int
}

// resetSolver drops the persistent solver so the next round rebuilds
// from scratch.  Called when a solve diverged (infeasible certificate or
// stall): its internal iterate would poison later warm starts.
func (cs *cutSolver) resetSolver() {
	cs.solver = nil
	cs.prob = nil
	cs.builtCuts = 0
}

// newtonCandidate extrapolates the clock period where the leakage
// budget ξ is met exactly, from the last converged round's tangent:
// τ* ≈ τ_p + (ξ − obj_p)/slope_p.  minLeak(τ) is convex and
// non-increasing, so with exact solves the tangent root is a LOWER
// bound on the true τ* — the outer loop probes candidate + guard and
// may raise its lower bracket to the candidate when the probe lands
// feasible.  Reports false when no tangent is available or the slope
// is not usefully negative (no active cuts: τ does not bind).
func (cs *cutSolver) newtonCandidate(xiNW float64) (float64, bool) {
	if !cs.tangentOK || !(cs.tangentSlope < 0) {
		return 0, false
	}
	cand := cs.tangentTau + (xiNW-cs.tangentObj)/cs.tangentSlope
	if math.IsNaN(cand) || math.IsInf(cand, 0) {
		return 0, false
	}
	return cand, true
}

// ensure makes the persistent solver match (tau, cuts) and warm-starts
// it at cs.x: bound update only when just τ moved, in-place row append
// (with dual carry-over) when the cut pool grew, rebuild otherwise.
func (cs *cutSolver) ensure(tau float64, cuts []cut) error {
	if cs.solver == nil || len(cuts) < cs.builtCuts {
		cs.rec.Add("core/solver_rebuilds", 1)
		cs.prob = cs.buildProblem(tau, cuts)
		solver, err := qp.NewSolver(cs.prob, cs.opt.QP)
		if err != nil {
			return err
		}
		var y []float64
		if len(cs.y) > 0 {
			y = make([]float64, cs.prob.A.M)
			copy(y, cs.y) // append-only rows: new cut rows start at zero
		}
		if err := solver.WarmStart(cs.x, y); err != nil {
			return err
		}
		cs.solver = solver
		cs.builtCuts = len(cuts)
		cs.builtTau = tau
		return nil
	}
	if len(cuts) == cs.builtCuts {
		cs.rec.Add("core/solver_reuses", 1)
	} else {
		// Append-only growth: cut rows sit after the fixed box/smoothness
		// prefix, so new cuts extend the live solver in place — the
		// factorized/preconditioned state for the old rows survives and
		// only the appended rows cost symbolic work.  Duals persist inside
		// the solver with zeros on the new rows, exactly the zero-padded
		// carry-over a rebuild reconstructs.
		cs.rec.Add("core/solver_row_appends", 1)
		newCuts := cuts[cs.builtCuts:]
		inf := math.Inf(1)
		l := make([]float64, len(newCuts))
		u := make([]float64, len(newCuts))
		cols := make([][]int, len(newCuts))
		vals := make([][]float64, len(newCuts))
		for i, c := range newCuts {
			cols[i], vals[i] = c.cols, c.vals
			l[i] = -inf
			u[i] = tau - c.nom
		}
		newA := qp.CSRFromRows(cs.nVar, cols, vals)
		if err := cs.solver.AppendRows(newA, l, u); err != nil {
			return err
		}
		cs.prob.A = qp.ConcatRows(cs.prob.A, newA)
		cs.prob.L = append(cs.prob.L, l...)
		cs.prob.U = append(cs.prob.U, u...)
		cs.builtCuts = len(cuts)
	}
	if tau != cs.builtTau {
		base := len(cs.prob.U) - cs.builtCuts
		for i, c := range cuts {
			cs.prob.U[base+i] = tau - c.nom
		}
		if err := cs.solver.UpdateBounds(cs.prob.L, cs.prob.U); err != nil {
			return err
		}
		cs.builtTau = tau
	}
	// Re-anchor the primal at the clamped iterate; duals persist inside
	// the solver.
	return cs.solver.WarmStart(cs.x, nil)
}

// saveDuals records the duals of a converged solve for the next round's
// warm start.
func (cs *cutSolver) saveDuals(y []float64) {
	cs.y = append(cs.y[:0], y...)
}

// recordTangent captures the (τ, obj, dObj/dτ) tangent of a converged
// round.  Cut rows sit after the fixed box/smoothness prefix and their
// upper bounds are τ − nom, so the value-function derivative is the
// negated dual sum over exactly those rows (duals of one-sided upper
// bounds are nonnegative, hence the slope is ≤ 0, matching a
// non-increasing minLeak).
func (cs *cutSolver) recordTangent(tau, obj float64, y []float64) {
	slope := 0.0
	for i := cs.comp.fixedA.M; i < len(y); i++ {
		slope -= y[i]
	}
	cs.tangentTau, cs.tangentObj = tau, obj
	cs.tangentSlope, cs.tangentOK = slope, true
}

// newCutSolverCompiled wires a run view onto a shared artifact.  The
// objective diagonal is copied (the one compiled slice tests may
// perturb); everything else is borrowed read-only.
func newCutSolverCompiled(c *Compiled, opt Options) *cutSolver {
	cs := &cutSolver{
		comp: c, opt: opt,
		nG: c.NG, nVar: c.NVar, clampN: c.NVar,
		pd:   append([]float64(nil), c.cutPD...),
		q:    c.doseQ,
		pool: &cutPool{seen: make(map[string]bool)},
	}
	cs.x = make([]float64, cs.nVar)
	return cs
}

// deltaFn returns the per-gate linear delay delta under actuator
// vector x, read through the compiled concatenated sensitivity rows
// (dose layer entries, then the bias-domain entry).  For dose-only
// artifacts the stored values are the same A·Ds (and B·Ds) products the
// historical closure multiplied inline, in the same order, so the sum
// is bit-identical.
func (cs *cutSolver) deltaFn(x []float64) func(id int) float64 {
	c := cs.comp
	return func(id int) float64 {
		s, e := c.sensPtr[id], c.sensPtr[id+1]
		if s == e {
			return 0
		}
		v := c.sensVal[s] * x[c.sensCol[s]]
		for k := s + 1; k < e; k++ {
			v += c.sensVal[k] * x[c.sensCol[k]]
		}
		return v
	}
}

// makeCut converts a path (from the linear-model enumeration at the
// iterate x) into a constraint row over all actuator variables.  Each
// column's coefficient accumulates in path order in a dense scratch
// row, starting from zero; columns are emitted sorted, which fixes the
// order of the floating-point sum below and so keeps cut.nom (hence the
// whole solve trajectory) deterministic.
func (cs *cutSolver) makeCut(p *sta.Path, x []float64) cut {
	c := cs.comp
	if cs.acc == nil {
		cs.acc = make([]float64, cs.nVar)
		cs.hit = make([]bool, cs.nVar)
	}
	acc, hit, touched := cs.acc, cs.hit, cs.touched[:0]
	for i, id := range p.Nodes {
		s, e := c.sensPtr[id], c.sensPtr[id+1]
		if s == e {
			continue
		}
		kind := c.Golden.In.Circ.Gates[id].Kind
		// Actuators affect the cell delay of combinational nodes and the
		// clock-to-q of the launching register (first node); the
		// capturing endpoint contributes no actuator-dependent delay.
		isLaunch := i == 0 && kind == netlist.Seq
		if kind == netlist.Comb || isLaunch {
			for k := s; k < e; k++ {
				col := c.sensCol[k]
				if !hit[col] {
					hit[col] = true
					touched = append(touched, col)
				}
				acc[col] += c.sensVal[k]
			}
		}
	}
	slices.Sort(touched)
	out := cut{cols: make([]int, len(touched)), vals: make([]float64, len(touched))}
	lin := 0.0
	for i, col := range touched {
		v := acc[col]
		acc[col], hit[col] = 0, false
		out.cols[i], out.vals[i] = col, v
		lin += v * x[col]
	}
	cs.touched = touched
	out.nom = p.Delay - lin
	return out
}

// appendSignature appends the cut's pool key to b: the nominal delay
// at two decimals, then column:coefficient pairs at four, byte for byte
// the fmt "%.2f|" and "%d:%.4f;" forms (strconv's 'f' format is what fmt
// prints for finite, infinite and NaN values alike).  Columns are
// emitted sorted by makeCut, so the key is canonical as-is.
func (c cut) appendSignature(b []byte) []byte {
	b = strconv.AppendFloat(b, c.nom, 'f', 2, 64)
	b = append(b, '|')
	for i, col := range c.cols {
		b = strconv.AppendInt(b, int64(col), 10)
		b = append(b, ':')
		b = strconv.AppendFloat(b, c.vals[i], 'f', 4, 64)
		b = append(b, ';')
	}
	return b
}

// arcTab returns the run's golden arc table, building it on first use.
func (cs *cutSolver) arcTab() *arcTable {
	if cs.arcs == nil {
		cs.arcs = newArcTable(cs.comp.Golden)
	}
	return cs.arcs
}

// topPaths enumerates the k longest paths of the linear timing model
// under the per-gate deltas: golden arcs plus the delta of every
// combinational receiver, launch weights plus the launching register's
// delta.
func (cs *cutSolver) topPaths(delta func(id int) float64, k int) []*sta.Path {
	c := cs.comp
	gates := c.Golden.In.Circ.Gates
	arcs := cs.arcTab()
	arcFn := func(from, to int) float64 {
		a := arcs.arc(from, to)
		if gates[to].Kind == netlist.Comb {
			a += delta(to)
		}
		return a
	}
	startFn := func(id int) float64 {
		s := c.Golden.StartWeight(id)
		if gates[id].Kind == netlist.Seq {
			s += delta(id)
		}
		return s
	}
	return sta.TopPathsDAG(c.Golden.In.Circ, c.order, arcFn, startFn, c.Golden.EndWeight, k, 0)
}

// buildProblem assembles the current QP: the compiled box/smoothness
// prefix concatenated with the cut rows.  The prefix CSR is shared (the
// solver clones its inputs); the objective diagonal is compiled from
// cs.pd because the run view owns that slice.
func (cs *cutSolver) buildProblem(tau float64, cuts []cut) *qp.Problem {
	c := cs.comp
	ptr := qp.NewTriplet(cs.nVar, cs.nVar)
	for j, v := range cs.pd {
		if v != 0 {
			ptr.Add(j, j, v)
		}
	}
	inf := math.Inf(1)
	nFixed := c.fixedA.M
	l := make([]float64, nFixed, nFixed+len(cuts))
	u := make([]float64, nFixed, nFixed+len(cuts))
	copy(l, c.fixedL)
	copy(u, c.fixedU)
	cols := make([][]int, len(cuts))
	vals := make([][]float64, len(cuts))
	for i, ct := range cuts {
		cols[i], vals[i] = ct.cols, ct.vals
		l = append(l, -inf)
		u = append(u, tau-ct.nom)
	}
	a := qp.ConcatRows(c.fixedA, qp.CSRFromRows(cs.nVar, cols, vals))
	return &qp.Problem{P: ptr.Compile(), Q: cs.q, A: a, L: l, U: u}
}

// solveTauGroup runs one cutting-plane probe — minimize Δleakage
// subject to MCT ≤ tau — for every member of a group in lockstep
// rounds against the members' shared cut pool.  A solo QP or QCP probe
// is a group of one; the wafer passes a column group.  All members must
// borrow the same base compilation (identical golden, order, objective
// structure) and share one cutPool; only bounds and linear terms may
// differ.  Each member's outcome lands in its probeObj and probeOK.  A
// canceled context aborts between cut rounds with an error wrapping
// context.Canceled.
//
// The timing model is linear in dose, so a tangent (path) cut derived
// at ANY member's iterate is globally valid: its coefficients come from
// the shared sensitivity model and its nominal term is the
// dose-independent path delay.  Syncing every member to the same pool
// snapshot at the top of each round keeps their constraint matrices
// bitwise identical, which is what qp.SolveBatchCtx validates before
// collapsing the round's QP solves into one lockstep batch whose
// x-steps are multi-RHS triangular solves against one shared factor.
//
// A member finishes when its linear-model clock period reaches τ — later
// rounds (driven by its slower siblings) no longer move its iterate,
// which is sound because convergence is verified on the full arrival
// propagation, not on the cut subset — or when its objective provably
// exceeds the budget xiNW (cuts only shrink the feasible set, so round
// objectives are non-decreasing: once above the budget the probe can
// never recover).  Pass +Inf for no budget; xiToleranceLeak(+Inf) is
// +Inf, so no objective exceeds it.  When any member's persistent solver
// must be rebuilt (infeasibility certificate or stall retry), every
// member's solver is reset with it: a lone rebuild would re-equilibrate
// against a different row count than its siblings and break the
// shared-factor validation for the rest of the run.
func solveTauGroup(ctx context.Context, css []*cutSolver, tau, xiNW float64) error {
	rec := obs.From(ctx)
	for _, cs := range css {
		cs.rec = rec
		cs.tangentOK = false // only a converged round of THIS probe may feed a Newton step
		cs.probeObj, cs.probeOK, cs.probeDone = 0, false, false
	}
	lead := css[0]
	pool := lead.pool
	c := lead.comp
	tolPs := cutTolRel * c.Golden.MCT
	xiCap := xiNW + xiToleranceLeak(c.nomLeakUW, xiNW)

	for round := 0; round < cutRounds; round++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: cut probe canceled at round %d: %w", round, err)
		}
		live := lead.groupLive[:0]
		for _, cs := range css {
			if !cs.probeDone {
				live = append(live, cs)
			}
		}
		lead.groupLive = live
		// One snapshot per round: every live member syncs to the same
		// cut rows in the same order, keeping their matrices bitwise
		// identical for the batch validation.
		snap := pool.snapshot()
		solvers := lead.groupSolvers[:0]
		for _, cs := range live {
			cs.rounds++
			rec.Add("core/cut_rounds", 1)
			if err := cs.ensure(tau, snap); err != nil {
				return err
			}
			solvers = append(solvers, cs.solver)
		}
		lead.groupSolvers = solvers
		results, err := qp.SolveBatchCtx(ctx, solvers)
		if err != nil {
			return err
		}
		resetAny := false
		for k, cs := range live {
			res := results[k]
			cs.solves++
			if res.Status == qp.PrimalInfeasible {
				cs.resetSolver() // certificate duals would poison warm starts
				resetAny = true
				cs.probeObj, cs.probeDone = 0, true
				continue
			}
			if res.Status != qp.Solved && cs.solver.MaxViolation(res.X) > 0.2 {
				// Still stalled after the in-solver restarts: retry the
				// round once, solo, on a completely fresh solver (new
				// equilibration and ADMM state) warm-started at the
				// stalled iterate, under the same iteration budget.
				// Genuinely infeasible probes fail both attempts and are
				// cut off here rather than after a multiple of the budget.
				solver, err := qp.NewSolver(cs.prob, cs.opt.QP)
				if err != nil {
					return err
				}
				if err := solver.WarmStart(res.X, res.Y); err != nil {
					return err
				}
				res, err = solver.SolveCtx(ctx)
				cs.solves++
				if err != nil {
					return err
				}
				viol := solver.MaxViolation(res.X)
				cs.resetSolver()
				resetAny = true
				if res.Status == qp.PrimalInfeasible {
					cs.probeObj, cs.probeDone = 0, true
					continue
				}
				if res.Status != qp.Solved && viol > 0.5 {
					return fmt.Errorf("core: cut QP did not converge (τ=%.1f, round %d, viol %.3g)",
						tau, round, viol)
				}
			}
			if res.Status != qp.Solved {
				// Residual violations below half a percent of dose (or
				// half a picosecond on a cut) are absorbed by map
				// legalization and re-measured by golden signoff; count
				// the round so the acceptance is not silent.
				rec.Add("core/unconverged_accepted", 1)
			}
			cs.saveDuals(res.Y)
			copy(cs.x, res.X)
			cs.clampVars()
			o := cs.objective(cs.x)
			cs.probeObj = o
			cs.recordTangent(tau, o, res.Y)
			if o > xiCap {
				cs.probeDone = true
				continue
			}
			delta := cs.deltaFn(cs.x)
			_, mct := linearArrivalsOrder(c.Golden, c.order, cs.arcTab(), delta)
			if mct <= tau+tolPs {
				cs.probeOK, cs.probeDone = true, true
				continue
			}
			// Violated path cuts from this member's iterate, appended in
			// member order so the shared pool grows deterministically.
			added := 0
			for _, p := range cs.topPaths(delta, cutsPerRound) {
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
					cs.probeOK, cs.probeDone = true, true
					continue
				}
				if pool.size() > len(snap) {
					continue
				}
				return fmt.Errorf("core: cut generation stalled at τ=%.1f (mct %.1f)", tau, mct)
			}
		}
		if resetAny {
			for _, cs := range css {
				cs.resetSolver()
			}
		}
		if !slices.ContainsFunc(css, func(cs *cutSolver) bool { return !cs.probeDone }) {
			return nil
		}
	}
	return errors.New("core: cut generation exceeded round budget")
}

// objective evaluates the model Δleakage of dose vector x in nW.
func (cs *cutSolver) objective(x []float64) float64 {
	obj := 0.0
	for j := 0; j < cs.nVar; j++ {
		obj += 0.5*cs.pd[j]*x[j]*x[j] + cs.q[j]*x[j]
	}
	return obj
}

// clampVars clamps the iterate's actuator variables onto their boxes
// after a solve (numerical slop only).  Dose blocks clamp to the RUN
// box [opt.DoseLo, opt.DoseHi] — the wafer consensus shifts it per
// field — while the bias block clamps to its compile-time box.
// Variables at clampN and beyond (auxiliary wafer consensus columns)
// are never clamped.
func (cs *cutSolver) clampVars() {
	for _, b := range cs.comp.Blocks {
		lo, hi := b.Lo, b.Hi
		if b.Name != "bias" {
			lo, hi = cs.opt.DoseLo, cs.opt.DoseHi
		}
		for k := 0; k < b.N; k++ {
			j := b.Off + k
			if j >= cs.clampN {
				return
			}
			cs.x[j] = clamp(cs.x[j], lo, hi)
		}
	}
}

// biasOf extracts the bias-block variables from the iterate (nil when
// the bias actuator is off).
func (cs *cutSolver) biasOf() []float64 {
	c := cs.comp
	if c.nBias == 0 {
		return nil
	}
	return append([]float64(nil), cs.x[c.biasOff:c.biasOff+c.nBias]...)
}

// layers converts the iterate into dose maps, legalized onto the exact
// equipment-feasible set (range + smoothness) so downstream consumers
// never see solver slop.  Without the dose actuator it returns a zero
// poly map (already legal), keeping downstream map consumers total.
func (cs *cutSolver) layers() dosemap.Layers {
	opt := cs.opt
	if !cs.comp.hasDose() {
		return dosemap.Layers{Poly: dosemap.NewMap(cs.comp.Grid)}
	}
	legalize := func(m *dosemap.Map) {
		if opt.Tiled {
			m.LegalizeTiled(opt.DoseLo, opt.DoseHi, opt.Delta, 50)
		} else {
			m.Legalize(opt.DoseLo, opt.DoseHi, opt.Delta, 50)
		}
	}
	poly := dosemap.NewMap(cs.comp.Grid)
	copy(poly.D, cs.x[:cs.nG])
	legalize(poly)
	out := dosemap.Layers{Poly: poly}
	if opt.BothLayers {
		act := dosemap.NewMap(cs.comp.Grid)
		copy(act.D, cs.x[cs.nG:2*cs.nG])
		legalize(act)
		out.Active = act
	}
	return out
}

// result packages the current iterate: extract, model prediction and
// golden signoff.
func (cs *cutSolver) result(ctx context.Context, probes int) (*Result, error) {
	c := cs.comp
	asn := Assignment{Layers: cs.layers(), BiasV: cs.biasOf()}
	predMCT, predLeak := c.predictAsn(asn)
	nominal := Eval{MCTps: c.Golden.MCT, LeakUW: c.nomLeakUW}
	gold, err := signoffAsn(ctx, c, cs.opt, asn)
	if err != nil {
		return nil, err
	}
	nCuts := cs.pool.size()
	return &Result{
		Layers:          asn.Layers,
		PredMCT:         predMCT,
		PredDeltaLeakNW: predLeak,
		Nominal:         nominal,
		Golden:          gold,
		Probes:          probes,
		Rows:            nCuts,
		Cols:            cs.nVar,
		BiasV:           asn.BiasV,
		BiasDomains:     c.nBias,
		Status:          fmt.Sprintf("cuts=%d rounds=%d solves=%d", nCuts, cs.rounds, cs.solves),
	}, nil
}
