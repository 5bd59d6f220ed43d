// Node-based assembly: the Eq. 5/10 program verbatim, with one arrival
// variable per timing-relevant gate.  The production engine represents
// the same timing constraints by path cuts (cuts.go); this assembly is
// kept only as an independent oracle for it (TestCutsVsNodeAgree).  It
// borrows the compiled grid, objective terms and sensitivity rows, and
// prunes arrival variables against its own worst-case (slowest
// reachable actuator setting) linear arrivals and suffixes.
package core

import (
	"math"
	"testing"

	"repro/internal/dosemap"
	"repro/internal/netlist"
	"repro/internal/qp"
	"repro/internal/sta"
	"repro/internal/tech"
)

// maxDelayDeltaFor returns the gate's largest possible delay increase
// over the active actuator boxes (used for conservative pruning).
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

// linearSuffixOrder computes, per gate, the largest downstream delay to
// any endpoint under the given per-gate deltas (analogous to the
// path-search suffix but on the linear model), over a precomputed
// topological order.
func linearSuffixOrder(golden *sta.Result, order []int, arcs *arcTable, delta func(id int) float64) []float64 {
	in := golden.In
	suf := make([]float64, in.Circ.NumGates())
	for i := range suf {
		suf[i] = math.Inf(-1)
	}
	relax := func(id int) {
		best := math.Inf(-1)
		for _, fo := range in.Circ.Gates[id].Fanouts {
			arc := arcs.arc(id, fo)
			var v float64
			switch in.Circ.Gates[fo].Kind {
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

// assembleNode builds the node-based QP at clock period tau.  A gate
// gets an arrival variable when its worst-case path delay reaches
// tau − 1 ps; below that it can never constrain the clock period.
func assembleNode(c *Compiled, opt Options, tau float64) *qp.Problem {
	golden := c.Golden
	in := golden.In
	nG := c.NG

	arcs := newArcTable(golden)
	worstDelta := func(id int) float64 { return maxDelayDeltaFor(c.Model, c.Opts, id) }
	worstArr, _ := linearArrivalsOrder(golden, c.order, arcs, worstDelta)
	worstSuf := linearSuffixOrder(golden, c.order, arcs, worstDelta)
	arrIdx := make([]int, in.Circ.NumGates())
	nVar := c.NVar
	for id, g := range in.Circ.Gates {
		arrIdx[id] = -1
		if g.Kind != netlist.Comb && g.Kind != netlist.Seq {
			continue
		}
		if math.IsInf(worstSuf[id], -1) {
			continue // dead end: no path to an endpoint
		}
		if worstArr[id]+worstSuf[id] >= tau-1 {
			arrIdx[id] = nVar
			nVar++
		}
	}

	// Objective: the compiled Eq. 2 terms widened with zero-cost arrival
	// variables.  The active-layer variables are linear in the paper's
	// model, so the cut engine's regularization on them is dropped.
	ptr := qp.NewTriplet(nVar, nVar)
	for j, v := range c.cutPD {
		if opt.BothLayers && j >= nG && j < 2*nG {
			continue
		}
		if v != 0 {
			ptr.Add(j, j, v)
		}
	}
	q := make([]float64, nVar)
	copy(q, c.doseQ)

	type entry struct {
		r, c int
		v    float64
	}
	var entries []entry
	var l, u []float64
	addRow := func(lo, hi float64) int {
		l = append(l, lo)
		u = append(u, hi)
		return len(l) - 1
	}
	add := func(r, c int, v float64) { entries = append(entries, entry{r, c, v}) }
	inf := math.Inf(1)

	// Box (Eq. 3/8) per actuator block: dose blocks take the run range,
	// the bias block its compiled box.
	for _, b := range c.Blocks {
		lo, hi := opt.DoseLo, opt.DoseHi
		if b.Name == "bias" {
			lo, hi = b.Lo, b.Hi
		}
		for k := 0; k < b.N; k++ {
			add(addRow(lo, hi), b.Off+k, 1)
		}
	}
	// Smoothness (Eq. 4/9): right, down, and down-right diagonal pairs
	// of every dose layer.
	nLayers := 1
	if opt.BothLayers {
		nLayers = 2
	}
	if opt.DoseOff {
		nLayers = 0
	}
	grid := c.Grid
	for layer := 0; layer < nLayers; layer++ {
		off := layer * nG
		for i := 0; i < grid.M; i++ {
			for j := 0; j < grid.N; j++ {
				a := grid.Flat(i, j)
				for _, d := range [][2]int{{0, 1}, {1, 0}, {1, 1}} {
					if i+d[0] >= grid.M || j+d[1] >= grid.N {
						continue
					}
					r := addRow(-opt.Delta, opt.Delta)
					add(r, off+a, 1)
					add(r, off+grid.Flat(i+d[0], j+d[1]), -1)
				}
			}
		}
	}
	// Timing (Eq. 5/10): each gate's actuator sensitivities enter
	// through its compiled row, negated onto the arrival inequality.
	sens := func(r, id int) {
		for k := c.sensPtr[id]; k < c.sensPtr[id+1]; k++ {
			add(r, c.sensCol[k], -c.sensVal[k])
		}
	}
	for id, g := range in.Circ.Gates {
		ai := arrIdx[id]
		if ai < 0 {
			continue
		}
		switch g.Kind {
		case netlist.Seq:
			// Launch: a_s ≥ clk2q_nom + A·Ds·dP (+ B·Ds·dA) (+ DB·b).
			r := addRow(golden.AOut[id], inf)
			add(r, ai, 1)
			sens(r, id)
		case netlist.Comb:
			for _, fi := range g.Fanins {
				arc := golden.ArcDelay(fi, id)
				r := addRow(arc, inf)
				add(r, ai, 1)
				sens(r, id)
				if fj := arrIdx[fi]; fj >= 0 {
					add(r, fj, -1)
				} else {
					// Excluded driver: conservative constant arrival.
					l[r] = arc + worstArr[fi]
				}
			}
		}
	}
	// Endpoint rows: a_r ≤ τ − wire − endWeight for every endpoint fanin.
	for id, g := range in.Circ.Gates {
		if g.Kind != netlist.PO && g.Kind != netlist.Seq {
			continue
		}
		for _, fi := range g.Fanins {
			if fj := arrIdx[fi]; fj >= 0 {
				add(addRow(-inf, tau-golden.ArcDelay(fi, id)-golden.EndWeight(id)), fj, 1)
			}
		}
	}

	tr := qp.NewTriplet(len(l), nVar)
	for _, e := range entries {
		tr.Add(e.r, e.c, e.v)
	}
	return &qp.Problem{P: ptr.Compile(), Q: q, A: tr.Compile(), L: l, U: u}
}

// nodeQPLeak solves the node-based QP at clock period tau off the
// shared artifact and returns the model Δleakage in nW of its legalized
// solution, evaluated like the cut engine evaluates its own.
func nodeQPLeak(t *testing.T, c *Compiled, opt Options, tau float64) float64 {
	t.Helper()
	opt = opt.normalized()
	if err := c.check(opt); err != nil {
		t.Fatal(err)
	}
	res, err := qp.Solve(assembleNode(c, opt, tau), opt.QP)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == qp.PrimalInfeasible {
		t.Fatalf("node QP infeasible at τ = %.1f ps", tau)
	}
	layers := dosemap.Layers{Poly: dosemap.NewMap(c.Grid)}
	if !opt.DoseOff {
		copy(layers.Poly.D, res.X[:c.NG])
		layers.Poly.Legalize(opt.DoseLo, opt.DoseHi, opt.Delta, 50)
		if opt.BothLayers {
			layers.Active = dosemap.NewMap(c.Grid)
			copy(layers.Active.D, res.X[c.NG:2*c.NG])
			layers.Active.Legalize(opt.DoseLo, opt.DoseHi, opt.Delta, 50)
		}
	}
	var bias []float64
	for d := 0; d < c.nBias; d++ {
		bias = append(bias, clamp(res.X[c.biasOff+d], c.Opts.BiasLo, c.Opts.BiasHi))
	}
	_, leak := c.predictAsn(Assignment{Layers: layers, BiasV: bias})
	return leak
}
