package sta

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netlist"
)

// oracleState is a node in the implicit prefix tree of the best-first
// search.
type oracleState struct {
	node     int
	g        float64 // exact delay of the prefix up to (and including) node
	bound    float64 // g + best possible suffix
	parent   int     // index into the arena; -1 for roots
	terminal bool
}

type oracleHeap struct {
	arena *[]oracleState
	idx   []int
}

func (h oracleHeap) Len() int { return len(h.idx) }
func (h oracleHeap) Less(a, b int) bool {
	return (*h.arena)[h.idx[a]].bound > (*h.arena)[h.idx[b]].bound
}
func (h oracleHeap) Swap(a, b int) { h.idx[a], h.idx[b] = h.idx[b], h.idx[a] }
func (h *oracleHeap) Push(x any)   { h.idx = append(h.idx, x.(int)) }
func (h *oracleHeap) Pop() any {
	old := h.idx
	n := len(old)
	v := old[n-1]
	h.idx = old[:n-1]
	return v
}

// oracleTopPathsDAG is the container/heap K-longest-path enumeration
// that TopPathsDAG replaced, kept verbatim as its reference: it calls arc
// and end again on every expansion and keeps its frontier in a
// container/heap over an arena of pointer-sized fields.
func oracleTopPathsDAG(circ *netlist.Circuit, order []int, arc func(from, to int) float64,
	start, end func(id int) float64, k, maxStates int) []*Path {
	if k <= 0 {
		return nil
	}
	n := circ.NumGates()

	// suffix[id] = best achievable delay from id's output to any
	// endpoint (excluding id's own launch weight); -inf for dead ends.
	suffix := make([]float64, n)
	for i := range suffix {
		suffix[i] = math.Inf(-1)
	}
	relax := func(id int) {
		g := circ.Gates[id]
		best := math.Inf(-1)
		for _, fo := range g.Fanouts {
			fog := circ.Gates[fo]
			a := arc(id, fo)
			var v float64
			if fog.Kind == netlist.PO || fog.Kind == netlist.Seq {
				v = a + end(fo)
			} else if !math.IsInf(suffix[fo], -1) {
				v = a + suffix[fo]
			} else {
				continue
			}
			if v > best {
				best = v
			}
		}
		suffix[id] = best
	}
	// Reverse topological pass fixes combinational/PI suffixes; a second
	// pass fixes sequential launch nodes (their fanouts are already
	// final).
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		if circ.Gates[id].Kind != netlist.Seq {
			relax(id)
		}
	}
	for id, g := range circ.Gates {
		if g.Kind == netlist.Seq {
			relax(id)
		}
	}

	arena := make([]oracleState, 0, 4*k)
	h := &oracleHeap{arena: &arena}
	push := func(s oracleState) {
		arena = append(arena, s)
		heap.Push(h, len(arena)-1)
	}
	// Roots: all startpoints with a live suffix.
	for _, sp := range circ.StartPoints() {
		if math.IsInf(suffix[sp], -1) {
			continue
		}
		g0 := start(sp)
		push(oracleState{node: sp, g: g0, bound: g0 + suffix[sp], parent: -1})
	}

	var paths []*Path
	visited := 0
	for h.Len() > 0 && len(paths) < k {
		si := heap.Pop(h).(int)
		s := arena[si]
		visited++
		if maxStates > 0 && visited > maxStates {
			break
		}
		if s.terminal {
			// Reconstruct.
			var rev []int
			for i := si; i >= 0; i = arena[i].parent {
				rev = append(rev, arena[i].node)
			}
			nodes := make([]int, len(rev))
			for i, v := range rev {
				nodes[len(rev)-1-i] = v
			}
			paths = append(paths, &Path{Nodes: nodes, Delay: s.g})
			continue
		}
		g := circ.Gates[s.node]
		for _, fo := range g.Fanouts {
			fog := circ.Gates[fo]
			a := arc(s.node, fo)
			if fog.Kind == netlist.PO || fog.Kind == netlist.Seq {
				tot := s.g + a + end(fo)
				push(oracleState{node: fo, g: tot, bound: tot, parent: si, terminal: true})
			} else if !math.IsInf(suffix[fo], -1) {
				ng := s.g + a
				push(oracleState{node: fo, g: ng, bound: ng + suffix[fo], parent: si})
			}
		}
	}
	return paths
}

// dagCase is one input of the graph-generic enumerator.
type dagCase struct {
	circ       *netlist.Circuit
	order      []int
	arc        func(from, to int) float64
	start, end func(id int) float64
}

// analyzedCase enumerates over a timing result.  A positive quantum
// rounds every arc delay to a multiple of it, so many prefix bounds tie
// and the frontier's tie order decides the output order.
func analyzedCase(r *Result, quantum float64) dagCase {
	arc := r.ArcDelay
	if quantum > 0 {
		arc = func(from, to int) float64 {
			return math.Round(r.ArcDelay(from, to)/quantum) * quantum
		}
	}
	return dagCase{circ: r.In.Circ, order: r.order, arc: arc, start: r.StartWeight, end: r.EndWeight}
}

// diffPaths describes the first difference between two path lists, or
// returns "" when they agree in count, order, nodes and delay bits.
func diffPaths(got, want []*Path) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d paths, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Delay) != math.Float64bits(want[i].Delay) {
			return fmt.Sprintf("path %d delay %v, want %v", i, got[i].Delay, want[i].Delay)
		}
		if !slices.Equal(got[i].Nodes, want[i].Nodes) {
			return fmt.Sprintf("path %d nodes %v, want %v", i, got[i].Nodes, want[i].Nodes)
		}
	}
	return ""
}

// checkOracle runs the enumerator and its oracle on one case and fails
// on any difference.  It also asserts that the enumerator calls arc
// exactly once per edge: every gate of a full topological order is
// relaxed once.
func checkOracle(t *testing.T, name string, c dagCase, k, maxStates int) {
	t.Helper()
	calls := 0
	counted := func(from, to int) float64 {
		calls++
		return c.arc(from, to)
	}
	got := TopPathsDAG(c.circ, c.order, counted, c.start, c.end, k, maxStates)
	want := oracleTopPathsDAG(c.circ, c.order, c.arc, c.start, c.end, k, maxStates)
	if d := diffPaths(got, want); d != "" {
		t.Fatalf("%s (k=%d, maxStates=%d): %s", name, k, maxStates, d)
	}
	edges := 0
	for _, g := range c.circ.Gates {
		edges += len(g.Fanouts)
	}
	if k > 0 && len(c.order) == c.circ.NumGates() && calls != edges {
		t.Fatalf("%s: arc called %d times for %d edges", name, calls, edges)
	}
}

// TestTopPathsMatchesOracle: on random meshes and random layered designs,
// with exact and quantized (tie-heavy) arc delays and with and without
// maxStates truncation, the flat-frontier enumerator returns exactly the
// oracle's paths — same count, order, nodes and delay bits.
func TestTopPathsMatchesOracle(t *testing.T) {
	limits := []struct{ k, maxStates int }{
		{1, 0}, {7, 0}, {200, 0}, {2000, 0}, // top-K cuts
		{2000, 1}, {2000, 37}, {2000, 500}, {1 << 20, 3000}, // maxStates truncation
	}
	rng := rand.New(rand.NewSource(11))
	for seed := int64(0); seed < 24; seed++ {
		var in Input
		if seed%2 == 0 {
			in = mesh(t, 100+seed)
		} else {
			in = randomDesign(rng)
		}
		r, err := Analyze(in, DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []float64{0, 5, 40} {
			c := analyzedCase(r, q)
			for _, l := range limits {
				checkOracle(t, fmt.Sprintf("seed %d quantum %v", seed, q), c, l.k, l.maxStates)
			}
		}
	}
}

// randomDAG builds a small random DAG from a seed: gate 0 is a primary
// input, later gates are inputs, combinational gates, flip-flops or
// outputs, and every edge runs from a lower to a higher gate ID (Connect
// rejects the ones the netlist forbids).  Arc, launch and terminal
// weights are drawn per edge/gate; levels > 0 quantizes them to that many
// values so equal bounds abound.
func randomDAG(seed int64, nGates, levels int) (dagCase, bool) {
	rng := rand.New(rand.NewSource(seed))
	c := netlist.New("fuzz")
	kinds := []netlist.Kind{netlist.PI, netlist.Comb, netlist.Comb, netlist.Comb, netlist.Seq, netlist.PO}
	c.AddGate("g0", "", netlist.PI)
	for i := 1; i < nGates; i++ {
		c.AddGate(fmt.Sprintf("g%d", i), "", kinds[rng.Intn(len(kinds))])
	}
	for to := 1; to < nGates; to++ {
		for e := rng.Intn(4); e > 0; e-- {
			_ = c.Connect(rng.Intn(to), to)
		}
	}
	order, err := c.TopoOrder()
	if err != nil {
		return dagCase{}, false
	}
	draw := func() float64 {
		if levels > 0 {
			return float64(rng.Intn(levels))
		}
		return rng.Float64() * 100
	}
	arcW := make(map[[2]int]float64)
	for _, g := range c.Gates {
		for _, fo := range g.Fanouts {
			arcW[[2]int{g.ID, fo}] = draw()
		}
	}
	nodeW := make([]float64, nGates)
	for i := range nodeW {
		nodeW[i] = draw()
	}
	return dagCase{
		circ:  c,
		order: order,
		arc:   func(from, to int) float64 { return arcW[[2]int{from, to}] },
		start: func(id int) float64 { return nodeW[id] },
		end:   func(id int) float64 { return nodeW[id] },
	}, true
}

// FuzzTopPathsDAG fuzzes the enumerator against the oracle over small
// random DAGs, weight quantizations, K and maxStates.
func FuzzTopPathsDAG(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(0), uint16(10), uint16(0))
	f.Add(int64(2), uint8(40), uint8(2), uint16(100), uint16(0))
	f.Add(int64(3), uint8(30), uint8(1), uint16(1000), uint16(25))
	f.Add(int64(4), uint8(60), uint8(3), uint16(5), uint16(3))
	f.Fuzz(func(t *testing.T, seed int64, nGates, levels uint8, k, maxStates uint16) {
		c, ok := randomDAG(seed, 1+int(nGates)%64, int(levels)%8)
		if !ok {
			return
		}
		checkOracle(t, fmt.Sprintf("seed %d", seed), c, int(k)%2048, int(maxStates)%4096)
	})
}
