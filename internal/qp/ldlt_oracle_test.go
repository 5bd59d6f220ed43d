package qp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The set-up path of the LDLᵀ factor — pattern compilation, row appends
// and re-ordering — is checked here against the comparison-sort
// implementation it replaced, kept below as the oracle: the adjacency
// built through a Triplet, sort.Slice in every pattern compile, and an
// append that runs symbolic once for the merge and again when the
// re-ordering is taken.  Every symbolic view and, after Refactor, every
// factor bit must match.

// oracleTripletCompile is Triplet.Compile on sort.Slice.
func oracleTripletCompile(t *Triplet) *CSR {
	type ent struct {
		r, c int
		v    float64
	}
	ents := make([]ent, len(t.vals))
	for i := range t.vals {
		ents[i] = ent{t.rows[i], t.cols[i], t.vals[i]}
	}
	sort.Slice(ents, func(a, b int) bool {
		if ents[a].r != ents[b].r {
			return ents[a].r < ents[b].r
		}
		return ents[a].c < ents[b].c
	})
	c := &CSR{M: t.m, N: t.n, RowPtr: make([]int, t.m+1)}
	for i := 0; i < len(ents); {
		j := i + 1
		v := ents[i].v
		for j < len(ents) && ents[j].r == ents[i].r && ents[j].c == ents[i].c {
			v += ents[j].v
			j++
		}
		if v != 0 {
			c.Col = append(c.Col, ents[i].c)
			c.Val = append(c.Val, v)
			c.RowPtr[ents[i].r+1]++
		}
		i = j
	}
	for r := 0; r < t.m; r++ {
		c.RowPtr[r+1] += c.RowPtr[r]
	}
	return c
}

func oracleAdjacencyOf(p *CSR, a *CSR, n int) *CSR {
	t := NewTriplet(n, n)
	if p != nil {
		for r := 0; r < p.M; r++ {
			for k := p.RowPtr[r]; k < p.RowPtr[r+1]; k++ {
				if c := p.Col[k]; c != r {
					t.Add(r, c, 1)
				}
			}
		}
	}
	if a != nil {
		for r := 0; r < a.M; r++ {
			lo, hi := a.RowPtr[r], a.RowPtr[r+1]
			for i := lo; i < hi; i++ {
				for j := i + 1; j < hi; j++ {
					t.Add(a.Col[i], a.Col[j], 1)
					t.Add(a.Col[j], a.Col[i], 1)
				}
			}
		}
	}
	return oracleTripletCompile(t)
}

func oracleNewLDLTFactor(p *CSR, sigma float64, a *CSR, n int) *ldltFactor {
	f := &ldltFactor{n: n}
	adj := oracleAdjacencyOf(p, a, n)
	f.perm, _ = bestOrder(adj)
	f.iperm = make([]int, n)
	for k, v := range f.perm {
		f.iperm[v] = k
	}
	f.oracleCompilePattern(collectUpper(p, sigma, a, n, f.iperm))
	f.symbolic()
	return f
}

func (f *ldltFactor) oracleCompilePattern(ents []upperEntry) {
	sort.Slice(ents, func(a, b int) bool {
		if ents[a].col != ents[b].col {
			return ents[a].col < ents[b].col
		}
		return ents[a].row < ents[b].row
	})
	f.kp = make([]int, f.n+1)
	f.ki = f.ki[:0]
	f.baseVal = f.baseVal[:0]
	f.ataVal = f.ataVal[:0]
	for i := 0; i < len(ents); {
		j := i + 1
		base, ata := ents[i].base, ents[i].ata
		for j < len(ents) && ents[j].col == ents[i].col && ents[j].row == ents[i].row {
			base += ents[j].base
			ata += ents[j].ata
			j++
		}
		f.ki = append(f.ki, ents[i].row)
		f.baseVal = append(f.baseVal, base)
		f.ataVal = append(f.ataVal, ata)
		f.kp[ents[i].col+1]++
		i = j
	}
	for c := 0; c < f.n; c++ {
		f.kp[c+1] += f.kp[c]
	}
}

func (f *ldltFactor) oracleMergeAppended(extra []upperEntry) {
	if len(extra) == 0 {
		return
	}
	sort.Slice(extra, func(a, b int) bool {
		if extra[a].col != extra[b].col {
			return extra[a].col < extra[b].col
		}
		return extra[a].row < extra[b].row
	})
	dst := 0
	for i := 0; i < len(extra); {
		j := i + 1
		e := extra[i]
		for j < len(extra) && extra[j].col == e.col && extra[j].row == e.row {
			e.ata += extra[j].ata
			j++
		}
		extra[dst] = e
		dst++
		i = j
	}
	extra = extra[:dst]

	newKP := make([]int, f.n+1)
	newKI := make([]int, 0, len(f.ki)+len(extra))
	newBase := make([]float64, 0, cap(newKI))
	newATA := make([]float64, 0, cap(newKI))
	xi := 0
	for c := 0; c < f.n; c++ {
		p := f.kp[c]
		end := f.kp[c+1]
		for p < end || (xi < len(extra) && extra[xi].col == c) {
			switch {
			case xi >= len(extra) || extra[xi].col != c || (p < end && f.ki[p] < extra[xi].row):
				newKI = append(newKI, f.ki[p])
				newBase = append(newBase, f.baseVal[p])
				newATA = append(newATA, f.ataVal[p])
				p++
			case p < end && f.ki[p] == extra[xi].row:
				newKI = append(newKI, f.ki[p])
				newBase = append(newBase, f.baseVal[p])
				newATA = append(newATA, f.ataVal[p]+extra[xi].ata)
				p++
				xi++
			default:
				newKI = append(newKI, extra[xi].row)
				newBase = append(newBase, 0)
				newATA = append(newATA, extra[xi].ata)
				xi++
			}
		}
		newKP[c+1] = len(newKI)
	}
	f.kp, f.ki, f.baseVal, f.ataVal = newKP, newKI, newBase, newATA
	f.symbolic()
}

func (f *ldltFactor) oracleAppendRows(a *CSR, fromRow int) {
	f.oracleMergeAppended(ataEntries(a, fromRow, f.iperm))
	f.oracleReorder()
}

func (f *ldltFactor) oracleReorder() {
	n := f.n
	t := NewTriplet(n, n)
	for c := 0; c < n; c++ {
		for p := f.kp[c]; p < f.kp[c+1]; p++ {
			if r := f.ki[p]; r != c {
				t.Add(r, c, 1)
				t.Add(c, r, 1)
			}
		}
	}
	rel, relFill := bestOrder(oracleTripletCompile(t))
	if relFill >= f.lp[n] {
		return
	}
	irel := make([]int, n)
	for k, v := range rel {
		irel[v] = k
	}
	ents := make([]upperEntry, 0, len(f.ki))
	for c := 0; c < n; c++ {
		for p := f.kp[c]; p < f.kp[c+1]; p++ {
			pi, pj := irel[f.ki[p]], irel[c]
			if pi > pj {
				pi, pj = pj, pi
			}
			ents = append(ents, upperEntry{row: pi, col: pj, base: f.baseVal[p], ata: f.ataVal[p]})
		}
	}
	newPerm := make([]int, n)
	for k := 0; k < n; k++ {
		newPerm[k] = f.perm[rel[k]]
	}
	f.perm = newPerm
	for k, v := range f.perm {
		f.iperm[v] = k
	}
	f.oracleCompilePattern(ents)
	f.symbolic()
}

func sameInts(t *testing.T, tag, name string, got, want []int) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %s differs from the oracle", tag, name)
	}
}

func sameBits(t *testing.T, tag, name string, got, want []float64) {
	t.Helper()
	if !floatBitsEqual(got, want) {
		t.Fatalf("%s: %s differs bitwise from the oracle", tag, name)
	}
}

// requireSameSetup compares every symbolic view the numeric kernels
// address through, then refactors both and compares L and D bitwise.
func requireSameSetup(t *testing.T, tag string, got, want *ldltFactor) {
	t.Helper()
	sameInts(t, tag, "perm", got.perm, want.perm)
	sameInts(t, tag, "iperm", got.iperm, want.iperm)
	sameInts(t, tag, "kp", got.kp, want.kp)
	sameInts(t, tag, "ki", got.ki, want.ki)
	sameBits(t, tag, "baseVal", got.baseVal, want.baseVal)
	sameBits(t, tag, "ataVal", got.ataVal, want.ataVal)
	sameInts(t, tag, "lp", got.lp, want.lp)
	sameInts(t, tag, "li", got.li, want.li)
	sameInts(t, tag, "sPtr", got.sPtr, want.sPtr)
	sameInts(t, tag, "sRows", got.sRows, want.sRows)
	const rho = 0.37
	if err := got.Refactor(rho); err != nil {
		t.Fatalf("%s: refactor: %v", tag, err)
	}
	if err := want.Refactor(rho); err != nil {
		t.Fatalf("%s: oracle refactor: %v", tag, err)
	}
	sameBits(t, tag, "L", got.factorL(), want.factorL())
	sameBits(t, tag, "D", got.d, want.d)
}

// gridCutProblem is the cut engine's problem shape on a g×g dose grid:
// a diagonal objective, one box row per cell and the 4-neighbour
// smoothness rows.  Coefficients are irregular so that summation order
// shows in the bits.
func gridCutProblem(rng *rand.Rand, g int) (p, a *CSR) {
	n := g * g
	pd := make([]float64, n)
	for i := range pd {
		pd[i] = 0.5 + rng.Float64()
	}
	tr := NewTriplet(n+2*g*(g-1), n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, 0.5+rng.Float64())
	}
	r := n
	for y := 0; y < g; y++ {
		for x := 0; x < g; x++ {
			j := y*g + x
			if x+1 < g {
				tr.Add(r, j, 1)
				tr.Add(r, j+1, -1)
				r++
			}
			if y+1 < g {
				tr.Add(r, j, 1)
				tr.Add(r, j+g, -1)
				r++
			}
		}
	}
	return diagCSRBench(pd), tr.Compile()
}

// cutRows returns nCuts path-cut rows over a g×g grid: each walks a
// random lattice path (a timing path crosses neighbouring cells) and
// carries negative sensitivity coefficients of mixed magnitude, so the
// cliques overlap heavily and AᵀA has many duplicate terms.
func cutRows(rng *rand.Rand, g, nCuts int) *CSR {
	n := g * g
	cols := make([][]int, nCuts)
	vals := make([][]float64, nCuts)
	for r := range cols {
		x, y := rng.Intn(g), rng.Intn(g)
		seen := map[int]bool{}
		for step, l := 0, 4+rng.Intn(24); step < l; step++ {
			seen[y*g+x] = true
			switch rng.Intn(4) {
			case 0:
				x = min(x+1, g-1)
			case 1:
				x = max(x-1, 0)
			case 2:
				y = min(y+1, g-1)
			default:
				y = max(y-1, 0)
			}
		}
		for c := range seen {
			cols[r] = append(cols[r], c)
		}
		slices.Sort(cols[r])
		for range cols[r] {
			vals[r] = append(vals[r], -math.Ldexp(0.5+rng.Float64(), rng.Intn(12)-6))
		}
	}
	return CSRFromRows(n, cols, vals)
}

// appendStep appends rows [from, a.M) to both factors and compares.
func appendStep(t *testing.T, tag string, got, want *ldltFactor, a *CSR, from int) (reordered bool) {
	t.Helper()
	sym := got.nSymbolic
	reordered = got.AppendRows(a, from)
	want.oracleAppendRows(a, from)
	if d := got.nSymbolic - sym; d != 1 {
		t.Fatalf("%s: append ran %d symbolic passes, want 1", tag, d)
	}
	requireSameSetup(t, tag, got, want)
	return reordered
}

// TestSetupMatchesOracle drives construction and appends on random QPs
// and on grid patterns with rounds of cut cliques, covering appends that
// keep the ordering, appends that re-order, and an empty append.
func TestSetupMatchesOracle(t *testing.T) {
	const sigma = 1e-6
	kept, taken := 0, 0
	count := func(r bool) {
		if r {
			taken++
		} else {
			kept++
		}
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		prob := randomFeasibleQP(rng)
		n, m := prob.A.N, prob.A.M
		split := m / 2
		a1 := csrRows(prob.A, 0, split)
		adj, oracleAdj := adjacencyOf(prob.P, prob.A, n), oracleAdjacencyOf(prob.P, prob.A, n)
		sameInts(t, "adjacency", "RowPtr", adj.RowPtr, oracleAdj.RowPtr)
		sameInts(t, "adjacency", "Col", adj.Col, oracleAdj.Col)
		got := newLDLTFactor(prob.P, sigma, a1, n)
		want := oracleNewLDLTFactor(prob.P, sigma, a1, n)
		tag := fmt.Sprintf("qp seed %d", seed)
		requireSameSetup(t, tag+" build", got, want)
		count(appendStep(t, tag+" append", got, want, prob.A, split))
		count(appendStep(t, tag+" empty append", got, want, prob.A, m))
	}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		g := 6 + rng.Intn(9)
		p, a := gridCutProblem(rng, g)
		tag := fmt.Sprintf("grid seed %d", seed)
		got := newLDLTFactor(p, sigma, a, g*g)
		want := oracleNewLDLTFactor(p, sigma, a, g*g)
		requireSameSetup(t, tag+" build", got, want)
		for round := 0; round < 5; round++ {
			from := a.M
			a = ConcatRows(a, cutRows(rng, g, 2+rng.Intn(12)))
			count(appendStep(t, tag+" round", got, want, a, from))
		}
		count(appendStep(t, tag+" empty append", got, want, a, a.M))
	}
	if kept == 0 || taken == 0 {
		t.Fatalf("coverage: %d appends kept the ordering and %d re-ordered; want both", kept, taken)
	}
}

// TestTripletCompileTieOrder pins the property the typed sorts rely on:
// slices.SortFunc leaves equal keys in the same order as sort.Slice, so
// duplicates sum in the same order and compile to the same bits.  The
// stable-order control shows the inputs are sensitive to that order.
func TestTripletCompileTieOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orderMatters := 0
	for trial := 0; trial < 2000; trial++ {
		m, n := 1+rng.Intn(5), 1+rng.Intn(5)
		tr := NewTriplet(m, n)
		for k, nnz := 0, 1+rng.Intn(200); k < nnz; k++ {
			tr.Add(rng.Intn(m), rng.Intn(n), math.Ldexp(rng.NormFloat64(), rng.Intn(60)-30))
		}
		got, want := tr.Compile(), oracleTripletCompile(tr)
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) || !floatBitsEqual(got.Val, want.Val) {
			t.Fatalf("trial %d: Compile differs from the sort.Slice oracle", trial)
		}
		// Control: the same duplicates summed in input order.
		sums := map[[2]int]float64{}
		for i := range tr.vals {
			sums[[2]int{tr.rows[i], tr.cols[i]}] += tr.vals[i]
		}
		for r := 0; r < m; r++ {
			for k := want.RowPtr[r]; k < want.RowPtr[r+1]; k++ {
				if math.Float64bits(sums[[2]int{r, want.Col[k]}]) != math.Float64bits(want.Val[k]) {
					orderMatters++
				}
			}
		}
	}
	if orderMatters == 0 {
		t.Fatal("no trial was sensitive to the duplicate summation order")
	}
}

// BenchmarkCutAppend times the set-up between cut rounds: five appends
// of path-cut cliques onto a 24×24 dose-grid factor, each followed by
// the symbolic analysis (and re-ordering when it pays).
func BenchmarkCutAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const g = 24
	p, a := gridCutProblem(rng, g)
	var mats []*CSR
	var froms []int
	full := a
	for round := 0; round < 5; round++ {
		froms = append(froms, full.M)
		full = ConcatRows(full, cutRows(rng, g, 16))
		mats = append(mats, full)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := newLDLTFactor(p, DefaultSettings().Sigma, a, g*g)
		b.StartTimer()
		for r, m := range mats {
			f.AppendRows(m, froms[r])
		}
	}
}
