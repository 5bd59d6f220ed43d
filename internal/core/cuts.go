// Cutting-plane solve stage: the default engine for both DMopt
// formulations.  It solves the identical mathematical program as the
// node-based assembly (Eqs. 2-12) but represents the timing constraints
// by path cuts generated on demand:
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
	"sync"

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
// probe (a path cut is valid for all τ).  The mutex makes it safe for
// the speculative QCP probes, which enrich the pool concurrently.
type cutPool struct {
	mu   sync.Mutex
	cuts []cut
	seen map[string]bool
	key  []byte // signature scratch, guarded by mu
}

// snapshot returns the current cuts.  The returned slice is never
// mutated in place (add only appends), so callers may read it without
// holding the lock.
func (p *cutPool) snapshot() []cut {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cuts[:len(p.cuts):len(p.cuts)]
}

// add appends c unless an equivalent cut is already pooled; it reports
// whether the cut was new.
func (p *cutPool) add(c cut) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.key = c.appendSignature(p.key[:0])
	if p.seen[string(p.key)] { // the compiler looks this up without allocating
		return false
	}
	p.seen[string(p.key)] = true
	p.cuts = append(p.cuts, c)
	return true
}

func (p *cutPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.cuts)
}

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

	// Tangent information of the most recent converged cut round: the
	// probed clock period, the model objective there, and the derivative
	// estimate dminLeak/dτ = −Σ y_i over the cut rows (each cut's upper
	// bound is τ − nom, so the bound moves one-for-one with τ and the
	// dual sum prices the move).  The QCP outer loop turns this into a
	// warm-started Newton/secant step on τ; tangentOK is false until a
	// round converges and is reset at every solveTau entry, so stale
	// probes never feed a step.
	tangentTau   float64
	tangentObj   float64
	tangentSlope float64
	tangentOK    bool

	// rec is the telemetry recorder, refreshed from the context at each
	// solveTau entry (ensure has no context of its own).
	rec *obs.Recorder

	// arcs tabulates the golden arc delays for this run's cut rounds,
	// built on first use (see arcTab).  acc and hit are makeCut's dense
	// per-column accumulator, all zero/false between calls, and touched
	// its column list.  Clones share arcs read-only but get their own
	// makeCut scratch.
	arcs    *arcTable
	acc     []float64
	hit     []bool
	touched []int
}

// clone returns a probe-local copy sharing the read-only problem data
// and the cut pool, with an independent warm-start iterate and dual
// state.  Used by the speculative QCP bisection to run probes
// concurrently; the qp.Solver is not shared (each clone builds its own
// on first use).
func (cs *cutSolver) clone() *cutSolver {
	cp := *cs
	cp.x = append([]float64(nil), cs.x...)
	cp.y = append([]float64(nil), cs.y...)
	cp.solver = nil
	cp.prob = nil
	cp.builtCuts = 0
	cp.acc, cp.hit, cp.touched = nil, nil, nil
	return &cp
}

// resetSolver drops the persistent solver so the next round rebuilds
// from scratch.  Called when a solve diverged (infeasible certificate or
// stall): its internal iterate would poison later warm starts.
func (cs *cutSolver) resetSolver() {
	cs.solver = nil
	cs.prob = nil
	cs.builtCuts = 0
}

// adopt takes over the iterate, dual and tangent state of a finished
// probe clone (the speculative bisection winner).
func (cs *cutSolver) adopt(p *cutSolver) {
	copy(cs.x, p.x)
	cs.y = append(cs.y[:0], p.y...)
	cs.tangentTau, cs.tangentObj = p.tangentTau, p.tangentObj
	cs.tangentSlope, cs.tangentOK = p.tangentSlope, p.tangentOK
	cs.resetSolver()
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
// it at cs.x: bound update only when just τ moved, rebuild (with dual
// carry-over) when the cut pool grew.
func (cs *cutSolver) ensure(tau float64, cuts []cut) error {
	if cs.solver != nil && len(cuts) == cs.builtCuts {
		cs.rec.Add("core/solver_reuses", 1)
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
		// Re-anchor the primal at the clamped iterate; duals persist
		// inside the solver.
		return cs.solver.WarmStart(cs.x, nil)
	}
	if cs.solver != nil && len(cuts) > cs.builtCuts {
		// Append-only growth: cut rows sit after the fixed box/smoothness
		// prefix, so new cuts extend the live solver in place — the
		// factorized/preconditioned state for the old rows survives and
		// only the appended rows cost symbolic work.  Duals persist inside
		// the solver with zeros on the new rows, exactly the zero-padded
		// carry-over the rebuild path used to reconstruct.
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
		return cs.solver.WarmStart(cs.x, nil)
	}
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

// newCutSolver compiles the formulation and wires a run view onto it in
// one step (the historical constructor, kept for direct callers and
// tests that bypass the cache layer).
func newCutSolver(golden *sta.Result, model *Model, opt Options) (*cutSolver, error) {
	c, err := Compile(golden, model, opt.CompileOptions())
	if err != nil {
		return nil, err
	}
	return newCutSolverCompiled(c, opt), nil
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

// solveTau minimizes Δleakage subject to MCT ≤ tau by cut generation,
// abandoning the probe as soon as the objective provably exceeds xiNW
// (cuts only shrink the feasible set, so the round objectives are
// non-decreasing — once above the budget the probe can never recover).
// Pass +Inf for a plain QP solve.  It returns the model objective in nW;
// feasible is false when the probe is infeasible or over budget.  A
// canceled context aborts between cut rounds with an error wrapping
// context.Canceled.
func (cs *cutSolver) solveTau(ctx context.Context, tau, xiNW float64) (obj float64, feasible bool, err error) {
	cs.rec = obs.From(ctx)
	cs.tangentOK = false // only a converged round of THIS probe may feed a Newton step
	c := cs.comp
	opt := cs.opt
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
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return 0, false, fmt.Errorf("core: cut probe canceled at round %d: %w", round, err)
		}
		cs.rounds++
		cs.rec.Add("core/cut_rounds", 1)
		if err := cs.ensure(tau, cs.pool.snapshot()); err != nil {
			return 0, false, err
		}
		res, err := cs.solver.SolveCtx(ctx)
		cs.solves++
		if err != nil {
			return 0, false, err
		}
		if res.Status == qp.PrimalInfeasible {
			cs.resetSolver() // certificate duals would poison warm starts
			return 0, false, nil
		}
		if res.Status != qp.Solved && cs.solver.MaxViolation(res.X) > 0.2 {
			// Still stalled after the in-solver restarts: retry the round
			// once on a completely fresh solver (new equilibration and
			// ADMM state) warm-started at the stalled iterate, under the
			// same iteration budget.  Genuinely infeasible probes fail
			// both attempts and are cut off here rather than after a
			// multiple of the budget.
			solver, err := qp.NewSolver(cs.prob, opt.QP)
			if err != nil {
				return 0, false, err
			}
			if err := solver.WarmStart(res.X, res.Y); err != nil {
				return 0, false, err
			}
			res, err = solver.SolveCtx(ctx)
			cs.solves++
			if err != nil {
				return 0, false, err
			}
			viol := solver.MaxViolation(res.X)
			cs.resetSolver()
			if res.Status == qp.PrimalInfeasible {
				return 0, false, nil
			}
			if res.Status != qp.Solved && viol > 0.5 {
				return 0, false, fmt.Errorf("core: cut QP did not converge (τ=%.1f, round %d, viol %.3g)",
					tau, round, viol)
			}
			// Residual violations below half a percent of dose (or half
			// a picosecond on a cut) are absorbed by map legalization
			// and re-measured by golden signoff.
		}
		cs.saveDuals(res.Y)
		copy(cs.x, res.X)
		cs.clampVars()
		o := cs.objective(cs.x)
		cs.recordTangent(tau, o, res.Y)
		if o > xiNW+xiToleranceLeak(c.nomLeakUW, xiNW) {
			return o, false, nil
		}
		delta := cs.deltaFn(cs.x)
		_, mct := linearArrivalsOrder(c.Golden, c.order, cs.arcTab(), delta)
		if mct <= tau+tolPs {
			return o, true, nil
		}
		// Generate violated path cuts.
		added := 0
		for _, p := range cs.topPaths(delta, perRound) {
			if p.Delay <= tau+tolPs/2 {
				break // paths arrive in non-increasing delay order
			}
			if cs.pool.add(cs.makeCut(p, cs.x)) {
				added++
			}
		}
		cs.rec.Add("core/cuts_added", int64(added))
		if cs.rec != nil {
			cs.rec.Set("core/cut_pool_size", float64(cs.pool.size()))
		}
		if added == 0 {
			// All violating paths already cut but the QP solution still
			// violates: solver tolerance floor.  Accept if close.
			if mct <= tau+5*tolPs {
				return o, true, nil
			}
			return 0, false, fmt.Errorf("core: cut generation stalled at τ=%.1f (mct %.1f)", tau, mct)
		}
	}
	return 0, false, errors.New("core: cut generation exceeded round budget")
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

// result packages the current iterate like the node-based path does.
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
