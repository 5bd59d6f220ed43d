// Linear-system backends for the ADMM x-step.  Every iteration solves
//
//	(P + σI + ρAᵀA) x̃ = σx − q + Aᵀ(ρz − y)
//
// against the same matrix K until ρ adapts or constraint rows are
// appended.  Two interchangeable backends exist:
//
//   - cgBackend: the original Jacobi-preconditioned conjugate-gradient
//     loop — matrix-free, O(nnz) per iteration, worker-parallel
//     mat-vecs, robust for any fill;
//   - ldltBackend: a cached sparse LDLᵀ factor of K — factor once per
//     ρ, then every x-step is two triangular solves, no inner loop.
//
// Settings.LinSys selects a backend; the Auto default measures the
// symbolic fill estimate and picks LDLᵀ when the factor stays sparse
// (the dose-map QPs: banded grid Laplacian plus short cut rows), CG
// otherwise.  A numeric breakdown in LDLᵀ (zero pivot) falls back to
// CG for the remainder of the solver's life.
package qp

import "fmt"

// LinSys selects the ADMM x-step linear-system backend.
type LinSys int

const (
	// LinSysAuto picks LDLᵀ when the symbolic fill estimate is below
	// autoFillLimit, CG otherwise.
	LinSysAuto LinSys = iota
	// LinSysCG forces the preconditioned conjugate-gradient backend.
	LinSysCG
	// LinSysLDLT forces the cached sparse LDLᵀ backend.
	LinSysLDLT
)

func (l LinSys) String() string {
	switch l {
	case LinSysAuto:
		return "auto"
	case LinSysCG:
		return "cg"
	case LinSysLDLT:
		return "ldlt"
	}
	return fmt.Sprintf("linsys(%d)", int(l))
}

// ParseLinSys parses a -linsys flag value.
func ParseLinSys(s string) (LinSys, error) {
	switch s {
	case "", "auto":
		return LinSysAuto, nil
	case "cg":
		return LinSysCG, nil
	case "ldlt":
		return LinSysLDLT, nil
	}
	return LinSysAuto, fmt.Errorf("qp: unknown linear-system backend %q (want auto, cg or ldlt)", s)
}

// autoFillLimit is the Auto-selection threshold: LDLᵀ is chosen when
// nnz(L) ≤ autoFillLimit × nnz(triu K).  Beyond that the factor's
// triangular solves cost more than the few CG iterations the warm-
// started ADMM x-step typically needs.
const autoFillLimit = 20

// linsys is the x-step solver contract.  Implementations live inside
// one Solver and work on its scaled data.
type linsys interface {
	// solve overwrites x with (an approximation of) K⁻¹b for the
	// current s.rho, starting from the initial guess already in x
	// (iterative backends) and stopping at tol.  It returns the inner
	// iteration count (0 for direct backends).
	solve(x, b []float64, tol float64) (int, error)
	// solveBatch solves K x[q] = b[q] for every right-hand side against
	// one factorization pass: the direct backend streams the factor
	// through cache once per supernode for the whole block, iterative
	// backends degrade to per-RHS solves.  Each x[q] is bitwise
	// identical to a solo solve(x[q], b[q], tol) call.
	solveBatch(xs, bs [][]float64, tol float64) (int, error)
	// appendRows re-syncs the backend after rows were appended to s.a.
	appendRows(fromRow int)
	// kind names the backend for telemetry.
	kind() LinSys
}

// --- CG backend -----------------------------------------------------------

// cgBackend wraps the historical preconditioned CG loop.  The Jacobi
// preconditioner is rebuilt into solver scratch whenever ρ moved.
type cgBackend struct {
	s       *Solver
	precond []float64
	rho     float64 // ρ the preconditioner was built for (NaN-safe: 0 = never)
	fresh   bool
}

func newCGBackend(s *Solver) *cgBackend {
	return &cgBackend{s: s, precond: make([]float64, s.n)}
}

func (b *cgBackend) solve(x, bvec []float64, tol float64) (int, error) {
	s := b.s
	if !b.fresh || b.rho != s.rho {
		for j := 0; j < s.n; j++ {
			b.precond[j] = 1 / (s.diagP[j] + s.set.Sigma + s.rho*s.diagTA[j])
		}
		b.rho = s.rho
		b.fresh = true
	}
	return s.cg(x, bvec, tol, b.precond), nil
}

func (b *cgBackend) solveBatch(xs, bs [][]float64, tol float64) (int, error) {
	// No factor to stream: a batch is just the member solves in order.
	total := 0
	for q := range xs {
		it, err := b.solve(xs[q], bs[q], tol)
		total += it
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func (b *cgBackend) appendRows(int) {
	// diagTA already carries the appended rows; just force a
	// preconditioner rebuild.
	b.fresh = false
}

func (b *cgBackend) kind() LinSys { return LinSysCG }

// --- LDLᵀ backend ---------------------------------------------------------

// defaultFactorCache is the ρ-ladder factor-cache capacity when
// Settings.FactorCache is zero.  Ten slots cover the working set the
// adaptive-ρ trajectory actually revisits: the initial rung, the
// settled rung, and the handful of rungs the eager adapter walks
// through on the way (plus stall-restart returns to the initial rung).
const defaultFactorCache = 10

// factorSnap is one cached numeric factor: the (panel storage, d) pair
// of a finished factorization, keyed by the exact ρ it was computed
// for and the pattern epoch it belongs to.  Snapshots are immutable
// once stored; restoring one is two flat copies — orders of magnitude
// cheaper than the factorization flops it replaces.
type factorSnap struct {
	rho   float64
	epoch int
	px    []float64
	d     []float64
	use   int64
}

// ldltBackend caches one live sparse factor of K plus a small LRU of
// numeric snapshots keyed by (ρ, pattern epoch).  ADMM ρ-adaptation
// quantizes onto the ρ-ladder (see Solver.adaptRho), so stall restarts
// and ρ flips revisit previously factored rungs and restore the cached
// (lx, d) instead of re-running the numeric phase.  Appending rows
// bumps the epoch and flushes the cache — a snapshot never outlives
// its pattern.
type ldltBackend struct {
	s        *Solver
	f        *ldltFactor
	rho      float64
	factored bool
	epoch    int
	cache    []*factorSnap
	cacheCap int
	useSeq   int64
	// Snapshots are stored and restored by pointer swap, never by copy:
	// aliased is the cache entry whose buffers the live factor currently
	// uses (nil when the live buffers are private), and freePx/freeD
	// recycle the buffers of evicted entries for the next numeric
	// factorization.  Sound because the numeric kernels overwrite every
	// true-pattern slot and never touch padding, so any same-epoch
	// buffer (or a fresh zeroed allocation) keeps the padded-zeros
	// invariant; the pools are dropped with the cache on epoch bumps.
	aliased *factorSnap
	freePx  [][]float64
	freeD   [][]float64
	// built records the ρ rungs numerically factored in the current
	// epoch.  It splits the factor counters by the work they represent:
	// the first build of an (epoch, rung) pair is a factorization —
	// unavoidable, the numbers did not exist — while building a pair
	// again is a refactorization, repeat work the snapshot cache exists
	// to eliminate (it only happens after an eviction or with caching
	// disabled).
	built map[float64]bool
}

func newLDLTBackend(s *Solver, f *ldltFactor) *ldltBackend {
	capacity := s.set.FactorCache
	if capacity == 0 {
		capacity = defaultFactorCache
	}
	if capacity < 0 {
		capacity = 0
	}
	return &ldltBackend{s: s, f: f, cacheCap: capacity, built: make(map[float64]bool)}
}

// lookup returns the cached snapshot for ρ in the current pattern
// epoch, refreshing its LRU stamp, or nil.
func (b *ldltBackend) lookup(rho float64) *factorSnap {
	for _, snap := range b.cache {
		if snap.rho == rho && snap.epoch == b.epoch {
			b.useSeq++
			snap.use = b.useSeq
			return snap
		}
	}
	return nil
}

// store snapshots the live factor for ρ by taking ownership of its
// buffers (zero copies), evicting the least-recently used entry at
// capacity and recycling the evicted buffers.
func (b *ldltBackend) store(rho float64) {
	if b.cacheCap <= 0 {
		return
	}
	if len(b.cache) >= b.cacheCap {
		lru := 0
		for i, snap := range b.cache {
			if snap.use < b.cache[lru].use {
				lru = i
			}
		}
		if ev := b.cache[lru]; ev != b.aliased {
			b.freePx = append(b.freePx, ev.px)
			b.freeD = append(b.freeD, ev.d)
		}
		b.cache[lru] = b.cache[len(b.cache)-1]
		b.cache = b.cache[:len(b.cache)-1]
		b.s.nCacheEvict++
	}
	b.useSeq++
	snap := &factorSnap{rho: rho, epoch: b.epoch, px: b.f.px, d: b.f.d, use: b.useSeq}
	b.cache = append(b.cache, snap)
	b.aliased = snap
}

// ensureFactored makes the live factor current for s.rho: restore a
// cached snapshot when the rung was factored before in this pattern
// epoch, run the numeric phase otherwise.
func (b *ldltBackend) ensureFactored() error {
	s := b.s
	if b.factored && b.rho == s.rho {
		return nil
	}
	if snap := b.lookup(s.rho); snap != nil {
		b.f.adopt(snap.px, snap.d)
		b.aliased = snap
		s.nCacheHit++
	} else {
		if b.aliased != nil {
			// The live buffers belong to a cache entry: factor into a
			// recycled (same-pattern, padding still zero) or fresh pair
			// so the snapshot survives intact.
			var px, d []float64
			if k := len(b.freePx); k > 0 {
				px, b.freePx = b.freePx[k-1], b.freePx[:k-1]
				d, b.freeD = b.freeD[k-1], b.freeD[:k-1]
			} else {
				px = make([]float64, len(b.f.px))
				d = make([]float64, len(b.f.d))
			}
			b.f.adopt(px, d)
			b.aliased = nil
		}
		if err := b.f.RefactorW(s.rho, s.set.Workers); err != nil {
			return err
		}
		s.nParLevels += int64(b.f.lastParLevels)
		s.nDenseFlops += b.f.denseFactorFlops
		if b.built[s.rho] {
			s.nRefactor++
		} else {
			s.nFactor++
			b.built[s.rho] = true
		}
		b.store(s.rho)
	}
	b.rho = s.rho
	b.factored = true
	return nil
}

func (b *ldltBackend) solve(x, bvec []float64, _ float64) (int, error) {
	if err := b.ensureFactored(); err != nil {
		return 0, err
	}
	s := b.s
	b.f.SolveW(x, bvec, s.set.Workers)
	s.nTriSolve++
	s.nDenseFlops += b.f.denseSolveFlops
	return 0, nil
}

func (b *ldltBackend) solveBatch(xs, bs [][]float64, _ float64) (int, error) {
	if err := b.ensureFactored(); err != nil {
		return 0, err
	}
	s := b.s
	b.f.SolveBatchW(xs, bs, s.set.Workers)
	nrhs := int64(len(xs))
	s.nTriSolve += nrhs
	s.nDenseFlops += nrhs * b.f.denseSolveFlops
	s.nSolveBatch++
	s.nSolveRHS += nrhs
	return 0, nil
}

func (b *ldltBackend) appendRows(fromRow int) {
	sym := b.f.nSymbolic
	if b.f.AppendRows(b.s.a, fromRow) {
		b.s.nReorder++
	}
	b.s.nSymbolic += b.f.nSymbolic - sym
	b.factored = false
	b.epoch++
	// New pattern: snapshots, buffer pools and the alias all describe
	// the old one.  Dropping the alias makes the live buffers private
	// again (every snapshot that could claim them is gone).
	b.cache = nil
	b.freePx, b.freeD = nil, nil
	b.aliased = nil
	clear(b.built)
}

func (b *ldltBackend) kind() LinSys { return LinSysLDLT }

// initLinsys chooses and constructs the backend after the scaled
// problem data is final.  Auto runs the symbolic analysis either way
// (it is cheap — pattern merge plus an elimination-tree pass) and keeps
// the factor only when the fill estimate clears the threshold.
func (s *Solver) initLinsys() {
	if s.set.LinSys == LinSysCG {
		s.lin = newCGBackend(s)
		return
	}
	f := newLDLTFactor(s.p, s.set.Sigma, s.a, s.n)
	s.nSymbolic += f.nSymbolic
	if s.set.LinSys == LinSysLDLT || f.NNZL() <= autoFillLimit*f.NNZK() {
		s.lin = newLDLTBackend(s, f)
		return
	}
	s.lin = newCGBackend(s)
}

// fallbackToCG permanently switches a solver whose LDLᵀ factor broke
// down (zero pivot on a numerically semidefinite K) to the CG backend.
func (s *Solver) fallbackToCG() {
	s.lin = newCGBackend(s)
	s.linFallbacks++
}

// FactorEntries exposes a copy of the live LDLᵀ numeric factor — the
// off-diagonal values of L (materialized from the supernodal panels
// into the internal column-compressed order) and the pivot diagonal D
// — when the x-step backend currently holds one.  It exists for
// determinism audits: the bit-identity tests compare factors produced
// at different worker counts entry by entry.
func (s *Solver) FactorEntries() (l, d []float64, ok bool) {
	b, isLDLT := s.lin.(*ldltBackend)
	if !isLDLT || !b.factored {
		return nil, nil, false
	}
	return b.f.factorL(), append([]float64(nil), b.f.d...), true
}
