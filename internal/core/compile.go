// Compile stage of the DMopt pipeline (compile → solve → signoff).
//
// Tables IV-VI and the dose sweeps solve many QP/QCP variants over one
// (design, grid, layers) formulation: the grid geometry, the gate→grid
// map, the worst-case pruning arrivals, the objective coefficients and
// the box/smoothness constraint pattern are all invariant across those
// runs.  Compile builds that invariant state once into an immutable
// *Compiled artifact; the run views in qp_run.go / qcp_run.go / cuts.go
// borrow it together with per-run mutable state (τ bounds, cut pool,
// warm-started solver).
//
// Ownership rule: a Compiled is never mutated after Compile returns.
// Runs copy what they need to mutate (the cut engine copies the
// objective diagonal; buildProblem copies the bound vectors) and lend
// the shared CSRs to qp.NewSolver, which clones its inputs.  This is
// what makes one artifact shareable across concurrent table jobs — the
// expt harness caches Compiled values exactly like designs and goldens.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/dosemap"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/qp"
	"repro/internal/sta"
	"repro/internal/tech"
)

// CompileOptions is the subset of Options that shapes the compiled
// formulation.  It is a comparable value type so callers can use it
// directly as a cache key.
type CompileOptions struct {
	// G is the grid granularity in µm.
	G float64
	// Delta is the dose smoothness bound δ in percent.
	Delta float64
	// DoseLo, DoseHi are the equipment correction range in percent.
	DoseLo, DoseHi float64
	// BothLayers enables simultaneous poly+active optimization.
	BothLayers bool
	// Tiled adds seam smoothness rows between opposite map edges.
	Tiled bool
	// DoseOff removes the dose actuator block (bias-only formulation).
	DoseOff bool
	// BiasGridUm adds the body-bias actuator block when > 0: the pitch
	// in µm of the square bias-domain tiling.
	BiasGridUm float64
	// BiasLo, BiasHi are the per-domain body-bias box in V.
	BiasLo, BiasHi float64
}

// CompileOptions projects the run options onto the compile key: the
// fields every solve over the same formulation must agree on.  The bias
// box defaults are materialized here so that runs and compiles keyed on
// the projection always agree; a disabled bias actuator leaves all bias
// fields zero, keeping legacy cache keys byte-identical.
func (o Options) CompileOptions() CompileOptions {
	co := CompileOptions{
		G: o.G, Delta: o.Delta,
		DoseLo: o.DoseLo, DoseHi: o.DoseHi,
		BothLayers: o.BothLayers, Tiled: o.Tiled,
		DoseOff: o.DoseOff,
	}
	if o.useBias() {
		co.BiasGridUm = o.BiasGridUm
		co.BiasLo, co.BiasHi = o.BiasLo, o.BiasHi
		if co.BiasLo == 0 && co.BiasHi == 0 {
			co.BiasLo, co.BiasHi = DefaultBiasLo, DefaultBiasHi
		}
	}
	return co
}

// Compiled is the immutable per-(design, grid, layers) artifact shared
// by every solve stage.  See the package comment of this file for the
// ownership rules.
type Compiled struct {
	// Golden is the nominal analysis the formulation linearizes around.
	Golden *sta.Result
	// Model holds the fitted per-instance delay/leakage coefficients.
	Model *Model
	// Opts is the compile key this artifact was built for; runs with a
	// different projection are rejected.
	Opts CompileOptions

	// Grid is the dose-map geometry; NG its cell count per layer and
	// NVar the total actuator-variable count across all blocks (NG or
	// 2·NG dose variables, plus one variable per bias domain).
	Grid     dosemap.Grid
	NG, NVar int

	// Blocks is the ordered actuator variable layout: dose layer blocks
	// first (offsets 0 and NG), then the bias block.  Every stage that
	// walks variables — fixed rows, cut assembly, clamping, extraction —
	// indexes through it instead of assuming nVar == nGrids×layers.
	Blocks []ActuatorBlock

	gridOf []int // gate → flat grid index, or -1 for ports
	order  []int // frozen topological order of the circuit

	// Body-bias actuator state (absent: nBias == 0, biasOff == -1).
	domainOf []int   // gate → bias domain, or -1
	nBias    int     // occupied bias domains
	biasOff  int     // variable offset of the bias block
	kGamma   float64 // dVth per volt of forward bias is -kGamma

	// Per-gate delay sensitivity rows, concatenated over all blocks in
	// block order (CSR over gates): d(delay_id)/d(x_col).  Values are
	// precomputed (A·Ds, B·Ds, DB) so the cut engine's evaluations stay
	// bit-identical to the historical inline products.
	sensPtr []int
	sensCol []int
	sensVal []float64

	// Dose-variable objective: ½·dosePD_j·x_j² + doseQ_j·x_j is the
	// Eq. 2 Δleakage model.  cutPD adds the active-layer regularization
	// the cutting-plane engine needs (the node assembly does not).
	dosePD, doseQ []float64
	cutPD         []float64

	// Fixed constraint prefix of the cut engine: box + smoothness
	// (+ seam) rows over the dose variables.  Cut rows are appended
	// after this prefix, so dual indices survive pool growth.
	fixedA         *qp.CSR
	fixedL, fixedU []float64

	// Worst-case (slowest reachable dose) linear arrivals and suffixes,
	// used by the node assembly to prune arrival variables.
	worstArr, worstSuf []float64

	// fastMCT is the linear-model MCT at the fastest reachable dose —
	// the QCP bisection's lower bound.
	fastMCT float64
	// snapMarginNW is the expected leakage cost of timing-safe dose
	// snapping; the QCP subtracts it from its budget ξ.
	snapMarginNW float64
	// nomLeakUW is the zero-dose leakage in µW.
	nomLeakUW float64
}

// ApproxBytes estimates the artifact's resident size (slices and the
// fixed-row CSR; the borrowed Golden/Model pointers are excluded — the
// cache layers account for those stages separately).  Byte-budget
// eviction only needs relative magnitudes, not exact accounting.
func (c *Compiled) ApproxBytes() int64 {
	n := len(c.gridOf) + len(c.order)
	f := len(c.dosePD) + len(c.doseQ) + len(c.cutPD) +
		len(c.fixedL) + len(c.fixedU) + len(c.worstArr) + len(c.worstSuf)
	csr := 0
	if c.fixedA != nil {
		csr = 8*(len(c.fixedA.RowPtr)+len(c.fixedA.Col)) + 8*len(c.fixedA.Val)
	}
	return int64(8*n + 8*f + csr)
}

// check validates that run options match the artifact's compile key.
func (c *Compiled) check(opt Options) error {
	if co := opt.CompileOptions(); co != c.Opts {
		return fmt.Errorf("core: options %+v do not match compiled artifact %+v", co, c.Opts)
	}
	return nil
}

// Compile builds the shared formulation artifact for (golden, model)
// under the given compile options.
func Compile(golden *sta.Result, model *Model, co CompileOptions) (*Compiled, error) {
	return CompileCtx(context.Background(), golden, model, co)
}

// CompileCtx is Compile with cancellation.  Every compile counts as a
// core/compile_misses tick (cache layers above report hits); the build
// time lands in core/compile_ns.
func CompileCtx(ctx context.Context, golden *sta.Result, model *Model, co CompileOptions) (*Compiled, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: compile canceled: %w", err)
	}
	start := time.Now()
	ctx, sp := obs.Start(ctx, "core/compile")
	defer sp.End()

	in := golden.In
	grid, err := dosemap.NewGrid(in.Pl.ChipW, in.Pl.ChipH, co.G)
	if err != nil {
		return nil, err
	}
	order, err := in.Circ.TopoOrder()
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		Golden: golden, Model: model, Opts: co,
		Grid: grid, NG: grid.Cells(),
		gridOf: gateGrid(in, grid), order: order,
		biasOff: -1,
	}

	// Actuator block layout: dose layers first, then bias domains.
	if co.DoseOff && co.BiasGridUm <= 0 {
		return nil, errNoActuators
	}
	if co.DoseOff && co.BothLayers {
		return nil, fmt.Errorf("core: BothLayers requires the dose actuator")
	}
	doseVars := 0
	if !co.DoseOff {
		doseVars = c.NG
		if co.BothLayers {
			doseVars = 2 * c.NG
		}
	}
	if co.BiasGridUm > 0 {
		if co.BiasLo > co.BiasHi {
			return nil, fmt.Errorf("core: bias box [%g, %g] is empty", co.BiasLo, co.BiasHi)
		}
		if model.DB == nil || model.AlphaB == nil || model.BetaB == nil {
			return nil, fmt.Errorf("core: bias actuator enabled but model has no fitted bias coefficients")
		}
		c.domainOf, c.nBias = in.Pl.Regions(co.BiasGridUm)
		if c.nBias == 0 {
			return nil, fmt.Errorf("core: bias tiling at %g µm produced no occupied domains", co.BiasGridUm)
		}
		c.biasOff = doseVars
		c.kGamma = in.Node.KGammaBody
	}
	c.NVar = doseVars + c.nBias
	if !co.DoseOff {
		c.Blocks = append(c.Blocks, ActuatorBlock{Name: "dose-poly", Off: 0, N: c.NG, Lo: co.DoseLo, Hi: co.DoseHi})
		if co.BothLayers {
			c.Blocks = append(c.Blocks, ActuatorBlock{Name: "dose-active", Off: c.NG, N: c.NG, Lo: co.DoseLo, Hi: co.DoseHi})
		}
	}
	if c.nBias > 0 {
		c.Blocks = append(c.Blocks, ActuatorBlock{Name: "bias", Off: c.biasOff, N: c.nBias, Lo: co.BiasLo, Hi: co.BiasHi})
	}

	// Objective diagonal and linear term over the actuator variables.
	ds := tech.DoseSensitivity
	c.dosePD = make([]float64, c.NVar)
	c.doseQ = make([]float64, c.NVar)
	if !co.DoseOff {
		for id := range in.Circ.Gates {
			g := c.gridOf[id]
			if g < 0 {
				continue
			}
			c.dosePD[g] += 2 * model.Alpha[id] * ds * ds
			c.doseQ[g] += model.Beta[id] * ds
			if co.BothLayers {
				c.doseQ[c.NG+g] += model.Gamma[id] * ds
			}
		}
	}
	if c.nBias > 0 {
		// Bias leakage model per gate: AlphaB·b² + BetaB·b, aggregated
		// per shared domain variable.
		for id := range in.Circ.Gates {
			dom := c.domainOf[id]
			if dom < 0 {
				continue
			}
			c.dosePD[c.biasOff+dom] += 2 * model.AlphaB[id]
			c.doseQ[c.biasOff+dom] += model.BetaB[id]
		}
	}
	c.cutPD = append([]float64(nil), c.dosePD...)
	if co.BothLayers {
		// The active-layer objective is exactly linear (leakage is linear
		// in gate width), which leaves those variables without curvature
		// and slows the first-order QP solver badly.  A tiny quadratic
		// regularization — three orders below the poly curvature — fixes
		// conditioning while perturbing the optimum negligibly.
		reg := 0.0
		for g := 0; g < c.NG; g++ {
			if c.cutPD[g] > reg {
				reg = c.cutPD[g]
			}
		}
		reg *= 1e-2
		if reg <= 0 {
			reg = 1e-6
		}
		for g := 0; g < c.NG; g++ {
			c.cutPD[c.NG+g] += reg
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: compile canceled: %w", err)
	}

	// Per-gate delay sensitivity rows concatenated over blocks.
	nGates := in.Circ.NumGates()
	c.sensPtr = make([]int, nGates+1)
	for id := 0; id < nGates; id++ {
		c.sensPtr[id] = len(c.sensCol)
		if !co.DoseOff {
			if g := c.gridOf[id]; g >= 0 {
				c.sensCol = append(c.sensCol, g)
				c.sensVal = append(c.sensVal, model.A[id]*ds)
				if co.BothLayers {
					c.sensCol = append(c.sensCol, c.NG+g)
					c.sensVal = append(c.sensVal, model.B[id]*ds)
				}
			}
		}
		if c.nBias > 0 {
			if dom := c.domainOf[id]; dom >= 0 {
				c.sensCol = append(c.sensCol, c.biasOff+dom)
				c.sensVal = append(c.sensVal, model.DB[id])
			}
		}
	}
	c.sensPtr[nGates] = len(c.sensCol)

	// Fixed constraint prefix of the cut engine.
	c.fixedA, c.fixedL, c.fixedU = compileFixedRows(grid, c.NG, c.NVar, co, c.Blocks)

	// Pruning state (node assembly) and the QCP lower bound.
	// The arc table lives only for this compile: the artifact keeps no
	// copy, so its footprint (and the cache's accounting) is unchanged.
	arcs := newArcTable(golden)
	worstDelta := func(id int) float64 { return maxDelayDeltaFor(model, co, id) }
	c.worstArr, _ = linearArrivalsOrder(golden, order, arcs, worstDelta)
	c.worstSuf = linearSuffixOrder(golden, order, arcs, worstDelta)
	_, c.fastMCT = linearArrivalsOrder(golden, order, arcs, func(id int) float64 {
		if in.Masters[id] == nil {
			return 0
		}
		return minDelayDeltaFor(model, co, id)
	})

	c.snapMarginNW = snapLeakMargin(model)
	c.nomLeakUW = nominalLeak(golden)

	obs.Add(ctx, "core/compile_misses", 1)
	obs.Add(ctx, "core/compile_ns", time.Since(start).Nanoseconds())
	obs.Set(ctx, "core/actuator_blocks", float64(len(c.Blocks)))
	if c.nBias > 0 {
		obs.Set(ctx, "core/bias_domains", float64(c.nBias))
	}
	return c, nil
}

// compileFixedRows assembles the fixed constraint prefix over the
// actuator blocks: box rows per block in block order (Eq. 3/8 for dose,
// the bias voltage box for bias domains), then the dose smoothness rows
// (Eq. 4/9) — bias domains have no smoothness coupling — plus the Tiled
// seam rows.  The triplet route keeps the compiled pattern bit-identical
// to the historical single-matrix assembly (including the degenerate
// 1-cell grids whose seam entries cancel to empty rows); with the dose
// blocks alone it reduces exactly to the pre-actuator emission order.
func compileFixedRows(grid dosemap.Grid, nG, nVar int, co CompileOptions, blocks []ActuatorBlock) (*qp.CSR, []float64, []float64) {
	nLayers := 1
	if co.BothLayers {
		nLayers = 2
	}
	if co.DoseOff {
		nLayers = 0
	}
	type entry struct {
		r, c int
		v    float64
	}
	var entries []entry
	var l, u []float64
	row := 0
	addRow := func(lo, hi float64) int {
		l = append(l, lo)
		u = append(u, hi)
		r := row
		row++
		return r
	}
	for _, b := range blocks {
		for k := 0; k < b.N; k++ {
			r := addRow(b.Lo, b.Hi)
			entries = append(entries, entry{r, b.Off + k, 1})
		}
	}
	for layer := 0; layer < nLayers; layer++ {
		off := layer * nG
		for i := 0; i < grid.M; i++ {
			for j := 0; j < grid.N; j++ {
				a := grid.Flat(i, j)
				if j+1 < grid.N {
					r := addRow(-co.Delta, co.Delta)
					entries = append(entries, entry{r, off + a, 1}, entry{r, off + grid.Flat(i, j+1), -1})
				}
				if i+1 < grid.M {
					r := addRow(-co.Delta, co.Delta)
					entries = append(entries, entry{r, off + a, 1}, entry{r, off + grid.Flat(i+1, j), -1})
				}
				if i+1 < grid.M && j+1 < grid.N {
					r := addRow(-co.Delta, co.Delta)
					entries = append(entries, entry{r, off + a, 1}, entry{r, off + grid.Flat(i+1, j+1), -1})
				}
			}
		}
	}
	if co.Tiled {
		// Seam smoothness: tiling copies of the field places the last
		// column/row against the first of the next copy.
		for layer := 0; layer < nLayers; layer++ {
			off := layer * nG
			for i := 0; i < grid.M; i++ {
				r := addRow(-co.Delta, co.Delta)
				entries = append(entries, entry{r, off + grid.Flat(i, grid.N-1), 1},
					entry{r, off + grid.Flat(i, 0), -1})
			}
			for j := 0; j < grid.N; j++ {
				r := addRow(-co.Delta, co.Delta)
				entries = append(entries, entry{r, off + grid.Flat(grid.M-1, j), 1},
					entry{r, off + grid.Flat(0, j), -1})
			}
		}
	}
	tr := qp.NewTriplet(row, nVar)
	for _, e := range entries {
		tr.Add(e.r, e.c, e.v)
	}
	return tr.Compile(), l, u
}

// gateGrid maps every cell to its flat grid index.
func gateGrid(in sta.Input, grid dosemap.Grid) []int {
	g := make([]int, in.Circ.NumGates())
	for id, gate := range in.Circ.Gates {
		if gate.Kind != netlist.Comb && gate.Kind != netlist.Seq {
			g[id] = -1
			continue
		}
		i, j := grid.Index(in.Pl.X[id], in.Pl.Y[id])
		g[id] = grid.Flat(i, j)
	}
	return g
}

// maxDelayDeltaFor returns the gate's largest possible delay increase
// over the active actuator boxes (used for conservative pruning);
// minDelayDeltaFor the largest possible decrease (most negative delta).
func maxDelayDeltaFor(model *Model, co CompileOptions, id int) float64 {
	ds := tech.DoseSensitivity
	v := 0.0
	if !co.DoseOff {
		// A·Ds·d maximal at d = DoseLo (Ds<0, A≥0); B·Ds·d maximal at DoseHi.
		v = model.A[id] * ds * co.DoseLo
		if co.BothLayers {
			v += model.B[id] * ds * co.DoseHi
		}
	}
	if co.BiasGridUm > 0 && model.DB != nil {
		// DB ≤ 0: delay grows most at the deepest reverse bias.
		v += model.DB[id] * co.BiasLo
	}
	return math.Max(v, 0)
}

func minDelayDeltaFor(model *Model, co CompileOptions, id int) float64 {
	ds := tech.DoseSensitivity
	v := 0.0
	if !co.DoseOff {
		v = model.A[id] * ds * co.DoseHi
		if co.BothLayers {
			v += model.B[id] * ds * co.DoseLo
		}
	}
	if co.BiasGridUm > 0 && model.DB != nil {
		v += model.DB[id] * co.BiasHi
	}
	return math.Min(v, 0)
}

// arcTable tabulates the frozen golden arc delays, aligned with each
// gate's Fanins: d[ptr[id]+k] = golden.ArcDelay(Fanins[k], id).  The
// linear timing model reads every arc once per evaluation, and each
// golden ArcDelay re-runs a wire-delay and device-model evaluation, so
// a run that evaluates the model many times (the cut rounds, the wafer
// fields) tabulates once and reads the table.  Lookups return the very
// values ArcDelay computes, so results are bit-identical.  A table is
// scoped to one compile, solve or wafer run and never stored in a
// cached artifact.
type arcTable struct {
	golden *sta.Result
	ptr    []int
	d      []float64
}

func newArcTable(golden *sta.Result) *arcTable {
	gates := golden.In.Circ.Gates
	t := &arcTable{golden: golden, ptr: make([]int, len(gates)+1)}
	for id, g := range gates {
		t.ptr[id+1] = t.ptr[id] + len(g.Fanins)
	}
	t.d = make([]float64, t.ptr[len(gates)])
	for id, g := range gates {
		for k, fi := range g.Fanins {
			t.d[t.ptr[id]+k] = golden.ArcDelay(fi, id)
		}
	}
	return t
}

// arc returns the delay of edge from→to, found among to's fanins
// (parallel pins fed by one gate carry the same arc delay).  A pair
// that is not an edge falls back to the golden evaluation.
func (t *arcTable) arc(from, to int) float64 {
	for k, fi := range t.golden.In.Circ.Gates[to].Fanins {
		if fi == from {
			return t.d[t.ptr[to]+k]
		}
	}
	return t.golden.ArcDelay(from, to)
}

// linearArrivals runs a forward pass over the frozen golden arc delays
// with the given per-gate delay deltas, returning per-gate output
// arrivals and the resulting MCT.  This is the optimizer's linear timing
// model (Eq. 5/10) evaluated at a concrete dose assignment.
func linearArrivals(golden *sta.Result, delta func(id int) float64) ([]float64, float64) {
	order, _ := golden.In.Circ.TopoOrder()
	return linearArrivalsOrder(golden, order, newArcTable(golden), delta)
}

// linearArrivalsOrder is linearArrivals borrowing a precomputed
// topological order (the compile artifact's) and arc table.
func linearArrivalsOrder(golden *sta.Result, order []int, arcs *arcTable, delta func(id int) float64) ([]float64, float64) {
	in := golden.In
	n := in.Circ.NumGates()
	arr := make([]float64, n)
	// Launches first (order does not cover FF-out edges).
	for id, g := range in.Circ.Gates {
		if g.Kind == netlist.Seq {
			arr[id] = golden.AOut[id] + delta(id)
		}
	}
	mct := 0.0
	for _, id := range order {
		g := in.Circ.Gates[id]
		ad := arcs.d[arcs.ptr[id]:arcs.ptr[id+1]]
		switch g.Kind {
		case netlist.Comb:
			best := 0.0
			for k, fi := range g.Fanins {
				if a := arr[fi] + ad[k] + delta(id); a > best {
					best = a
				}
			}
			arr[id] = best
		case netlist.PO, netlist.Seq:
			best := 0.0
			for k, fi := range g.Fanins {
				if a := arr[fi] + ad[k]; a > best {
					best = a
				}
			}
			if g.Kind == netlist.PO {
				arr[id] = best
				if best > mct {
					mct = best
				}
			} else if e := best + golden.EndWeight(id); e > mct {
				mct = e
			}
		}
	}
	return arr, mct
}

// linearSuffixOrder computes, per gate, the largest downstream delay to
// any endpoint under the given per-gate deltas (analogous to the
// path-search suffix but on the linear model), over a precomputed
// topological order.
func linearSuffixOrder(golden *sta.Result, order []int, arcs *arcTable, delta func(id int) float64) []float64 {
	in := golden.In
	n := in.Circ.NumGates()
	suf := make([]float64, n)
	for i := range suf {
		suf[i] = math.Inf(-1)
	}
	relax := func(id int) {
		g := in.Circ.Gates[id]
		best := math.Inf(-1)
		for _, fo := range g.Fanouts {
			fog := in.Circ.Gates[fo]
			arc := arcs.arc(id, fo)
			var v float64
			switch fog.Kind {
			case netlist.PO, netlist.Seq:
				v = arc + golden.EndWeight(fo)
			default:
				if math.IsInf(suf[fo], -1) {
					continue
				}
				v = arc + delta(fo) + suf[fo]
			}
			if v > best {
				best = v
			}
		}
		suf[id] = best
	}
	for i := len(order) - 1; i >= 0; i-- {
		if in.Circ.Gates[order[i]].Kind != netlist.Seq {
			relax(order[i])
		}
	}
	for id, g := range in.Circ.Gates {
		if g.Kind == netlist.Seq {
			relax(id)
		}
	}
	return suf
}

// predict evaluates the linear timing model and Eq. 2 leakage model at a
// solution.
func (c *Compiled) predict(layers dosemap.Layers) (mct, dleakNW float64) {
	ds := tech.DoseSensitivity
	deltaOf := func(id int) float64 {
		gidx := c.gridOf[id]
		if gidx < 0 {
			return 0
		}
		v := c.Model.A[id] * ds * layers.Poly.D[gidx]
		if c.Opts.BothLayers && layers.Active != nil {
			v += c.Model.B[id] * ds * layers.Active.D[gidx]
		}
		return v
	}
	_, mct = linearArrivalsOrder(c.Golden, c.order, newArcTable(c.Golden), deltaOf)
	n := c.Golden.In.Circ.NumGates()
	dP := make([]float64, n)
	var dA []float64
	if c.Opts.BothLayers && layers.Active != nil {
		dA = make([]float64, n)
	}
	for id := 0; id < n; id++ {
		if g := c.gridOf[id]; g >= 0 {
			dP[id] = layers.Poly.D[g]
			if dA != nil {
				dA[id] = layers.Active.D[g]
			}
		}
	}
	return mct, c.Model.DeltaLeak(dP, dA)
}
