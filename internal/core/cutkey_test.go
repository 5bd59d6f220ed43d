package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sta"
)

// oracleSignature is the fmt form the cut pool used to key on; the
// strconv key must reproduce it byte for byte, or dedup decisions (and
// with them the pool, the cut rows and every downstream bit) would move.
func oracleSignature(c cut) string {
	s := fmt.Sprintf("%.2f|", c.nom)
	for i := range c.cols {
		s += fmt.Sprintf("%d:%.4f;", c.cols[i], c.vals[i])
	}
	return s
}

func TestCutKeyMatchesSprintf(t *testing.T) {
	negZero := math.Copysign(0, -1)
	adversarial := []float64{
		0, negZero,
		-0.001, -0.004999, -0.005, 0.005, 0.015, 2.675, 1.005, // round to ±0.00 or sit on a half
		-0.00001, -0.00004999, -0.00005, 0.00005, 0.00015, // the same at four decimals
		0.125, 0.375, 1e21, -1e21, 123456789.125,
		1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	check := func(c cut) {
		t.Helper()
		want := oracleSignature(c)
		if got := string(c.appendSignature(nil)); got != want {
			t.Fatalf("key %q, want %q", got, want)
		}
		// The pool reuses its buffer: a stale longer key must not leak.
		buf := []byte("stale prefix that is longer than most keys|0:1.0000;")
		if got := string(c.appendSignature(buf[:0])); got != want {
			t.Fatalf("reused-buffer key %q, want %q", got, want)
		}
	}
	for _, v := range adversarial {
		check(cut{nom: v})
		check(cut{nom: v, cols: []int{0, 7, 1 << 40}, vals: []float64{v, -v, 1}})
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5000; trial++ {
		c := cut{nom: math.Ldexp(rng.NormFloat64(), rng.Intn(80)-40)}
		col := 0
		for k, nz := 0, rng.Intn(12); k < nz; k++ {
			col += 1 + rng.Intn(1000)
			c.cols = append(c.cols, col)
			c.vals = append(c.vals, math.Ldexp(rng.NormFloat64(), rng.Intn(40)-30))
		}
		check(c)
	}
}

// TestCutPoolDedup checks the pool keys on the rounded form: a repeat,
// or a cut differing only below the printed precision, is rejected.
func TestCutPoolDedup(t *testing.T) {
	p := &cutPool{seen: make(map[string]bool)}
	a := cut{nom: 101.234, cols: []int{3, 9}, vals: []float64{-0.5, -0.25}}
	if !p.add(a) {
		t.Fatal("first cut rejected")
	}
	if p.add(a) {
		t.Fatal("repeat cut accepted")
	}
	b := a
	b.nom = 101.2341
	b.vals = []float64{-0.50001, -0.25}
	if p.add(b) {
		t.Fatal("cut equal at printed precision accepted")
	}
	b.vals = []float64{-0.5002, -0.25}
	if !p.add(b) {
		t.Fatal("distinct cut rejected")
	}
	if p.size() != 2 {
		t.Fatalf("pool size %d, want 2", p.size())
	}
}

// oracleMakeCut is the map-accumulator makeCut the dense scratch row
// replaced.
func oracleMakeCut(cs *cutSolver, p *sta.Path, x []float64) cut {
	c := cs.comp
	coeff := map[int]float64{}
	for i, id := range p.Nodes {
		s, e := c.sensPtr[id], c.sensPtr[id+1]
		if s == e {
			continue
		}
		kind := c.Golden.In.Circ.Gates[id].Kind
		isLaunch := i == 0 && kind == netlist.Seq
		if kind == netlist.Comb || isLaunch {
			for k := s; k < e; k++ {
				coeff[c.sensCol[k]] += c.sensVal[k]
			}
		}
	}
	cols := make([]int, 0, len(coeff))
	for col := range coeff {
		cols = append(cols, col)
	}
	sort.Ints(cols)
	out := cut{}
	lin := 0.0
	for _, col := range cols {
		v := coeff[col]
		out.cols = append(out.cols, col)
		out.vals = append(out.vals, v)
		lin += v * x[col]
	}
	out.nom = p.Delay - lin
	return out
}

// TestMakeCutMatchesMapOracle builds cuts from real top paths of the
// linear model, dose-only and with both dose layers plus body bias (up
// to three sensitivity columns per gate), and requires the dense
// accumulator to match the map oracle bit for bit and to leave its
// scratch row clean.
func TestMakeCutMatchesMapOracle(t *testing.T) {
	_, golden := smallGolden(t, 0.05)
	for _, joint := range []bool{false, true} {
		opt := DefaultOptions()
		if joint {
			opt.BothLayers = true
			opt.BiasGridUm = 20
		}
		model, err := FitModel(golden, opt.BothLayers)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := Compile(golden, model, opt.CompileOptions())
		if err != nil {
			t.Fatal(err)
		}
		cs := newCutSolverCompiled(comp, opt)
		rng := rand.New(rand.NewSource(11))
		x := make([]float64, cs.nVar)
		for j := range x {
			x[j] = opt.DoseLo + (opt.DoseHi-opt.DoseLo)*rng.Float64()
		}
		paths := cs.topPaths(cs.deltaFn(x), 300)
		if len(paths) == 0 {
			t.Fatal("no paths")
		}
		for i, p := range paths {
			got, want := cs.makeCut(p, x), oracleMakeCut(cs, p, x)
			if !slices.Equal(got.cols, want.cols) ||
				!slices.EqualFunc(got.vals, want.vals, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) ||
				math.Float64bits(got.nom) != math.Float64bits(want.nom) {
				t.Fatalf("joint=%v path %d: cut differs from the map oracle", joint, i)
			}
		}
		for j := range cs.acc {
			if cs.acc[j] != 0 || math.Signbit(cs.acc[j]) || cs.hit[j] {
				t.Fatalf("joint=%v: scratch column %d left dirty", joint, j)
			}
		}
	}
}

// TestArcTableMatchesGolden checks every tabulated arc, and a lookup
// through the fanouts, against the golden evaluation bit for bit.
func TestArcTableMatchesGolden(t *testing.T) {
	_, golden := smallGolden(t, 0.05)
	arcs := newArcTable(golden)
	for id, g := range golden.In.Circ.Gates {
		for k, fi := range g.Fanins {
			want := math.Float64bits(golden.ArcDelay(fi, id))
			if math.Float64bits(arcs.d[arcs.ptr[id]+k]) != want || math.Float64bits(arcs.arc(fi, id)) != want {
				t.Fatalf("arc %d→%d differs from the golden evaluation", fi, id)
			}
		}
	}
}
