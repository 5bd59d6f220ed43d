package sta

import (
	"math"
	"sync"

	"repro/internal/netlist"
)

// Path is one register-to-register (or port-to-port) timing path.
type Path struct {
	// Nodes lists gate IDs from startpoint to endpoint inclusive.
	Nodes []int
	// Delay is the total path delay in ps, including the startpoint
	// launch (clock-to-q) and the endpoint setup.
	Delay float64
}

// Slack returns the path slack at clock period T.
func (p *Path) Slack(period float64) float64 { return period - p.Delay }

// Start and End return the path's terminal gate IDs.
func (p *Path) Start() int { return p.Nodes[0] }
func (p *Path) End() int   { return p.Nodes[len(p.Nodes)-1] }

// pathState is a node in the implicit prefix tree of the best-first
// search.  Whether a state is terminal is not stored: only a state
// reached through an edge into an endpoint (a PO or a flip-flop D pin)
// is, so it follows from the parent link and the node's kind.
type pathState struct {
	g      float64 // exact delay of the prefix up to (and including) node
	node   int32
	parent int32 // index into the arena; -1 for roots
}

// pathEdge is one live fanout edge of the enumeration graph, in fanout
// order: arc is its delay, and w is the terminal weight of the endpoint
// it enters (term) or else the best suffix from its head.
type pathEdge struct {
	arc, w float64
	to     int32
	term   bool
}

// frontierItem is one frontier entry: a state's upper bound on any
// completion of its prefix, and the state's arena index.
type frontierItem struct {
	bound float64
	idx   int32
}

// frontier is a max-heap on bound.  push and pop make the same
// comparisons as container/heap's Push and Pop with Less(a, b) =
// bound[a] > bound[b] and leave every item in the same slot, so states
// of equal bound leave in the same order.
type frontier []frontierItem

func (h *frontier) push(it frontierItem) {
	*h = append(*h, it)
	q := *h
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.bound > q[i].bound) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = it
}

func (h *frontier) pop() frontierItem {
	q := *h
	n := len(q) - 1
	top := q[0]
	x := q[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].bound > q[j].bound {
			j = j2
		}
		if !(q[j].bound > x.bound) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = x
	*h = q[:n]
	return top
}

// searchBufs is the arena and frontier of one enumeration.  Calls
// borrow them from searchPool, so repeated extractions (dosePl rounds,
// cut rounds) reuse the storage instead of regrowing it.
type searchBufs struct {
	arena []pathState
	front frontier
}

var searchPool = sync.Pool{New: func() any { return new(searchBufs) }}

// TopPaths enumerates the K longest paths in exact non-increasing delay
// order, the stand-in for the paper's "top-K (e.g., K = 10,000) critical
// paths" extraction.  Fewer than K paths are returned if the design has
// fewer distinct paths (enumeration also stops after popping maxStates
// prefix states as a safety valve; 0 means no limit).
func (r *Result) TopPaths(k int, maxStates int) []*Path {
	return TopPathsDAG(r.In.Circ, r.order, r.ArcDelay, r.StartWeight, r.EndWeight, k, maxStates)
}

// TopPathsDAG is the graph-generic K-longest-path enumeration underlying
// TopPaths: arc gives the delay of edge from→to, start the launch weight
// of a startpoint, end the terminal weight of an endpoint.  The
// optimizer reuses it on its linear delay model.
//
// One backward pass over order computes each node's best suffix and
// tabulates every live fanout edge with its delay, so arc is called once
// per edge and end once per endpoint edge; the best-first search then
// reads only the flat edge table.
func TopPathsDAG(circ *netlist.Circuit, order []int, arc func(from, to int) float64,
	start, end func(id int) float64, k, maxStates int) []*Path {
	if k <= 0 {
		return nil
	}
	n := circ.NumGates()
	isEnd := make([]bool, n)
	nEdges := 0
	for id, g := range circ.Gates {
		isEnd[id] = g.Kind == netlist.PO || g.Kind == netlist.Seq
		nEdges += len(g.Fanouts)
	}

	// suffix[id] = best achievable delay from id's output to any
	// endpoint (excluding id's own launch weight); -inf for dead ends.
	// Gate id's live edges are edges[lo[id]:hi[id]].
	suffix := make([]float64, n)
	for i := range suffix {
		suffix[i] = math.Inf(-1)
	}
	lo := make([]int32, n)
	hi := make([]int32, n)
	edges := make([]pathEdge, 0, nEdges)
	relax := func(id int) {
		best := math.Inf(-1)
		lo[id] = int32(len(edges))
		for _, fo := range circ.Gates[id].Fanouts {
			a := arc(id, fo)
			e := pathEdge{arc: a, to: int32(fo), term: isEnd[fo]}
			if e.term {
				e.w = end(fo)
			} else if !math.IsInf(suffix[fo], -1) {
				e.w = suffix[fo]
			} else {
				continue
			}
			edges = append(edges, e)
			if v := a + e.w; v > best {
				best = v
			}
		}
		hi[id] = int32(len(edges))
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

	bufs := searchPool.Get().(*searchBufs)
	arena, h := bufs.arena[:0], bufs.front[:0]
	defer func() {
		bufs.arena, bufs.front = arena, h
		searchPool.Put(bufs)
	}()
	// Roots: all startpoints with a live suffix.
	for _, sp := range circ.StartPoints() {
		if math.IsInf(suffix[sp], -1) {
			continue
		}
		g0 := start(sp)
		arena = append(arena, pathState{g: g0, node: int32(sp), parent: -1})
		h.push(frontierItem{bound: g0 + suffix[sp], idx: int32(len(arena) - 1)})
	}

	var paths []*Path
	visited := 0
	for len(h) > 0 && len(paths) < k {
		si := h.pop().idx
		s := arena[si]
		visited++
		if maxStates > 0 && visited > maxStates {
			break
		}
		if s.parent >= 0 && isEnd[s.node] {
			// Reconstruct, filling the node list from its tail.
			depth := 0
			for i := si; i >= 0; i = arena[i].parent {
				depth++
			}
			nodes := make([]int, depth)
			for i := si; i >= 0; i = arena[i].parent {
				depth--
				nodes[depth] = int(arena[i].node)
			}
			paths = append(paths, &Path{Nodes: nodes, Delay: s.g})
			continue
		}
		for _, e := range edges[lo[s.node]:hi[s.node]] {
			// An endpoint's prefix delay is its bound: the path is whole.
			g := s.g + e.arc
			bound := g + e.w
			if e.term {
				g = bound
			}
			arena = append(arena, pathState{g: g, node: e.to, parent: si})
			h.push(frontierItem{bound: bound, idx: int32(len(arena) - 1)})
		}
	}
	return paths
}

// PathCounts returns, for each gate, the number of the given paths that
// pass through it — the first dosePl priority factor ("number of critical
// paths that pass through the cell").
func PathCounts(nGates int, paths []*Path) []int {
	counts := make([]int, nGates)
	for _, p := range paths {
		for _, id := range p.Nodes {
			counts[id]++
		}
	}
	return counts
}

// FractionAbove returns the fraction of paths whose delay is at least
// frac·mct — the Table VII criticality metric.
func FractionAbove(paths []*Path, mct, frac float64) float64 {
	if len(paths) == 0 {
		return 0
	}
	n := 0
	for _, p := range paths {
		if p.Delay >= frac*mct {
			n++
		}
	}
	return float64(n) / float64(len(paths))
}
