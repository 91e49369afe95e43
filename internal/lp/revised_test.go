package lp

import (
	"errors"
	"fmt"
	"math"

	"privcount/internal/mat"
)

// This file is the unbounded revised simplex: the second reference
// engine the cross-validation tests compare production against. It is
// the sparse engine the bounded one (bounded.go) grew out of, without
// native variable boxes (bounds reach it as explicit rows through
// expandBounds); eta, refactorEvery and the two private sentinels it
// shares with the bounded engine live in bounded.go.
//
// Where the dense tableau updates an O(m·n) working matrix per pivot,
// the revised method keeps only the constraint matrix in CSC form
// (canonical.go), an LU factorization of the current basis
// (internal/mat.SparseLU), and a short eta file of product-form updates
// that is folded into a fresh factorization every refactorEvery pivots.
//
// Structure shared with the dense path: two phases with artificial
// variables, deterministic right-hand-side perturbation against the
// massive degeneracy of the ratio-constraint rows, a switch to Bland's
// rule after a stall, and dual recovery through the canonical row
// metadata. Pricing maintains the full reduced-cost vector
// incrementally — each pivot updates it through the tableau row
// αᵀ = e_rᵀ·B⁻¹·A, computed as one sparse BTRAN plus a CSR row sweep —
// and selects the entering column by devex reference weights. The vector
// is recomputed from fresh duals at every refactorization so incremental
// drift cannot accumulate past the eta file's lifetime.

// revised is the working state of one revised-simplex run.
type revised struct {
	model *Model
	cf    *canonForm
	opts  Options

	b        []float64 // working RHS (carries the perturbation)
	trueB    []float64 // unperturbed canonical RHS
	basis    []int     // basis[i] = column basic in row i
	basisPos []int     // column -> row position, -1 when nonbasic

	lu     *mat.SparseLU
	etas   []eta
	etaNNZ int // total stored eta entries, for the adaptive refactor cap

	xB []float64 // values of the basic variables, by row position
	y  []float64 // dual scratch (B⁻ᵀ·c_B)
	w  []float64 // ftran scratch (B⁻¹·a_q)

	// Incremental pricing state.
	d       []float64 // reduced costs per column (0 for basic columns)
	gamma   []float64 // devex reference weights
	rho     []float64 // BTRAN scratch for e_rᵀ·B⁻¹
	alphaV  []float64 // scatter accumulator for the tableau row α
	touched []int32   // columns hit by the current α sweep

	iters   int
	refacts int
}

func newRevised(m *Model, cf *canonForm, opts Options, perturb bool) *revised {
	rv := &revised{
		model:    m,
		cf:       cf,
		opts:     opts,
		b:        append([]float64(nil), cf.b...),
		trueB:    cf.b,
		basis:    append([]int(nil), cf.initIdCol...),
		basisPos: make([]int, cf.totalCols),
		xB:       make([]float64, cf.m),
		y:        make([]float64, cf.m),
		w:        make([]float64, cf.m),
		d:        make([]float64, cf.totalCols),
		gamma:    make([]float64, cf.totalCols),
		rho:      make([]float64, cf.m),
		alphaV:   make([]float64, cf.totalCols),
		touched:  make([]int32, 0, cf.totalCols),
	}
	for j := range rv.basisPos {
		rv.basisPos[j] = -1
	}
	for i, j := range rv.basis {
		rv.basisPos[j] = i
	}
	if perturb {
		// Same deterministic scheme as the dense tableau: a strictly
		// positive, row-dependent nudge in [eps, 2eps) that makes the
		// degenerate polytope simple. finish() restores the true data.
		const eps = 1e-9
		h := uint64(0x9e3779b97f4a7c15)
		for i := range rv.b {
			h ^= uint64(i+1) * 0xbf58476d1ce4e5b9
			h ^= h >> 27
			h *= 0x94d049bb133111eb
			rv.b[i] += eps * (1 + float64(h%1024)/1024)
		}
	}
	return rv
}

// refactorize rebuilds the LU factorization of the current basis and
// clears the eta file. A cancelled solve context abandons the partial
// factorization and surfaces ErrCanceled instead of the fallback
// sentinel, so cancellation never triggers an oracle re-solve.
func (rv *revised) refactorize() error {
	lu, err := mat.FactorSparseCtx(rv.opts.ctx, rv.cf.m, func(k int) ([]int32, []float64) {
		return rv.cf.column(rv.basis[k])
	})
	if err != nil {
		if ctxErr(rv.opts.ctx) != nil {
			return canceledErr(rv.opts.ctx)
		}
		return fmt.Errorf("%w: %v", errSparseFallback, err)
	}
	rv.lu = lu
	rv.etas = rv.etas[:0]
	rv.etaNNZ = 0
	rv.refacts++
	return nil
}

// recomputeXB refreshes the basic values from the working RHS through
// the current factorization.
func (rv *revised) recomputeXB() {
	copy(rv.xB, rv.b)
	rv.ftranApply(rv.xB)
}

// ftranApply overwrites x with B⁻¹·x.
func (rv *revised) ftranApply(x []float64) {
	rv.lu.SolveVec(x)
	for k := range rv.etas {
		e := &rv.etas[k]
		t := x[e.r]
		if t == 0 {
			continue
		}
		t /= e.diag
		for p, i := range e.idx {
			x[i] -= e.val[p] * t
		}
		x[e.r] = t
	}
}

// btranApply overwrites y with B⁻ᵀ·y.
func (rv *revised) btranApply(y []float64) {
	for k := len(rv.etas) - 1; k >= 0; k-- {
		e := &rv.etas[k]
		s := y[e.r]
		for p, i := range e.idx {
			s -= e.val[p] * y[i]
		}
		y[e.r] = s / e.diag
	}
	rv.lu.SolveTransposeVec(y)
}

// computeDuals sets rv.y = B⁻ᵀ·c_B for the given cost vector.
func (rv *revised) computeDuals(cost []float64) {
	for i, j := range rv.basis {
		rv.y[i] = cost[j]
	}
	rv.btranApply(rv.y)
}

// reducedCost returns d_j = c_j − yᵀ·a_j under the current duals.
func (rv *revised) reducedCost(cost []float64, j int) float64 {
	d := cost[j]
	idx, val := rv.cf.column(j)
	for p, i := range idx {
		d -= rv.y[i] * val[p]
	}
	return d
}

// refreshPricing recomputes the reduced-cost vector from fresh duals.
// It runs at phase entry and after every refactorization, bounding how
// long incremental updates can drift.
func (rv *revised) refreshPricing(cost []float64) {
	rv.computeDuals(cost)
	for j := 0; j < rv.cf.totalCols; j++ {
		if rv.basisPos[j] >= 0 {
			rv.d[j] = 0
			continue
		}
		rv.d[j] = rv.reducedCost(cost, j)
	}
}

// resetDevex restores the devex reference framework to unit weights.
func (rv *revised) resetDevex() {
	for j := range rv.gamma {
		rv.gamma[j] = 1
	}
}

// pickEntering selects the entering column from the maintained reduced
// costs, or -1 when none improves. Normal mode maximises the devex
// score d²/γ; Bland mode takes the lowest-index improving column, which
// cannot cycle.
func (rv *revised) pickEntering(allowed func(int) bool, tol float64, bland bool) int {
	total := rv.cf.totalCols
	if bland {
		for j := 0; j < total; j++ {
			if rv.d[j] < -tol && rv.basisPos[j] < 0 && allowed(j) {
				return j
			}
		}
		return -1
	}
	best, bestJ := 0.0, -1
	for j := 0; j < total; j++ {
		dj := rv.d[j]
		if dj >= -tol || rv.basisPos[j] >= 0 || !allowed(j) {
			continue
		}
		if s := dj * dj / rv.gamma[j]; s > best {
			best, bestJ = s, j
		}
	}
	return bestJ
}

// updatePricing folds one pivot (entering q, leaving row pr) into the
// reduced costs and devex weights. It must run before applyPivot: it
// needs the pre-pivot basis and factorization to form the tableau row
// αᵀ = e_prᵀ·B⁻¹·A (one sparse BTRAN, then a CSR sweep over the rows
// where ρ is nonzero).
func (rv *revised) updatePricing(pr, q int) {
	cf := rv.cf
	for i := range rv.rho {
		rv.rho[i] = 0
	}
	rv.rho[pr] = 1
	rv.btranApply(rv.rho)

	rv.touched = rv.touched[:0]
	for i, r := range rv.rho {
		if r == 0 {
			continue
		}
		for p := cf.rowPtr[i]; p < cf.rowPtr[i+1]; p++ {
			j := cf.colIdx[p]
			if rv.alphaV[j] == 0 {
				rv.touched = append(rv.touched, j)
			}
			rv.alphaV[j] += r * cf.rowVal[p]
		}
	}

	wr := rv.w[pr]
	g := rv.d[q] / wr
	gq := rv.gamma[q]
	for _, j := range rv.touched {
		a := rv.alphaV[j]
		rv.alphaV[j] = 0
		if a == 0 || rv.basisPos[j] >= 0 {
			continue // basic columns keep d = 0
		}
		rv.d[j] -= g * a
		t := a / wr
		if s := t * t * gq; s > rv.gamma[j] {
			rv.gamma[j] = s
		}
	}
	// The leaving column (basic in row pr, so α = 1 exactly) becomes
	// nonbasic with reduced cost −g; the entering column becomes basic.
	l := rv.basis[pr]
	rv.d[l] = -g
	if gl := gq / (wr * wr); gl > 1 {
		rv.gamma[l] = gl
	} else {
		rv.gamma[l] = 1
	}
	rv.d[q] = 0
	// An exploding framework stops being a useful reference; restart it.
	if rv.gamma[l] > 1e10 || gq > 1e10 {
		rv.resetDevex()
	}
}

// ftranColumn fills rv.w with B⁻¹·a_q.
func (rv *revised) ftranColumn(q int) {
	for i := range rv.w {
		rv.w[i] = 0
	}
	idx, val := rv.cf.column(q)
	for p, i := range idx {
		rv.w[i] = val[p]
	}
	rv.ftranApply(rv.w)
}

// ratioTest picks the leaving row for the entering direction rv.w, or -1
// for an unbounded ray. In phase 2 a basic artificial that the entering
// column would drive positive (w_i < −tol at value ~0) is forced out
// first with a zero-length step, keeping the equality rows honest.
func (rv *revised) ratioTest(bland, barArtificial bool, tol float64) (pr int, forced bool) {
	cf := rv.cf
	if barArtificial {
		// The forced pivot element must clear the same magnitude floor as
		// normal pivots: an eta with a ~1e-9 diagonal would amplify error
		// through every later FTRAN/BTRAN. Below the floor the artificial
		// grows by at most pivotTol·θ per step — noise the final
		// feasibility check bounds.
		const pivotTol = 1e-7
		for i := 0; i < cf.m; i++ {
			if cf.isArtificial(rv.basis[i]) && rv.w[i] < -pivotTol {
				return i, true
			}
		}
	}
	minRatio := math.Inf(1)
	for i := 0; i < cf.m; i++ {
		a := rv.w[i]
		if a <= tol {
			continue
		}
		x := rv.xB[i]
		if x < 0 {
			x = 0
		}
		if r := x / a; r < minRatio {
			minRatio = r
		}
	}
	if math.IsInf(minRatio, 1) {
		return -1, false
	}
	const pivotTol = 1e-7
	tieBound := minRatio + tol*(1+minRatio)
	pr = -1
	prStable := false
	for i := 0; i < cf.m; i++ {
		a := rv.w[i]
		if a <= tol {
			continue
		}
		x := rv.xB[i]
		if x < 0 {
			x = 0
		}
		if x/a > tieBound {
			continue
		}
		if bland {
			if pr < 0 || rv.basis[i] < rv.basis[pr] {
				pr = i
			}
			continue
		}
		stable := a >= pivotTol
		switch {
		case pr < 0:
			pr, prStable = i, stable
		case stable && !prStable:
			pr, prStable = i, stable
		case !stable && prStable:
			// keep the stable candidate
		case a > rv.w[pr]:
			pr = i
		}
	}
	return pr, false
}

// applyPivot executes the basis change: entering q replaces the variable
// basic in row pr, stepping the basic values by theta along rv.w and
// recording the eta update.
func (rv *revised) applyPivot(pr, q int, theta float64) {
	if theta != 0 {
		for i := range rv.xB {
			if rv.w[i] != 0 {
				rv.xB[i] -= theta * rv.w[i]
			}
		}
	}
	rv.xB[pr] = theta

	var nnz int
	for i, v := range rv.w {
		if v != 0 && i != pr {
			nnz++
		}
	}
	e := eta{r: pr, diag: rv.w[pr], idx: make([]int32, 0, nnz), val: make([]float64, 0, nnz)}
	for i, v := range rv.w {
		if v != 0 && i != pr {
			e.idx = append(e.idx, int32(i))
			e.val = append(e.val, v)
		}
	}
	rv.etas = append(rv.etas, e)
	rv.etaNNZ += len(e.val)

	rv.basisPos[rv.basis[pr]] = -1
	rv.basis[pr] = q
	rv.basisPos[q] = pr
}

// needRefactor reports whether the eta file has outgrown its usefulness:
// either in count or in total stored entries relative to the factors
// (dense transformed columns make eta passes cost more than a fresh LU).
func (rv *revised) needRefactor() bool {
	return len(rv.etas) >= refactorEvery || rv.etaNNZ > 2*rv.lu.NNZ()+4*rv.cf.m
}

// runPhase drives primal simplex pivots for one cost vector until
// optimality, unboundedness, or the shared iteration budget runs out.
func (rv *revised) runPhase(cost []float64, allowed func(int) bool, barArtificial bool) (Status, error) {
	tol := rv.opts.Tol
	const stallLimit = 64
	stall := 0
	rv.resetDevex()
	rv.refreshPricing(cost)
	for {
		if ctxErr(rv.opts.ctx) != nil {
			return StatusCanceled, nil
		}
		if rv.iters >= rv.opts.MaxIterations {
			return StatusIterLimit, nil
		}
		bland := stall >= stallLimit
		q := rv.pickEntering(allowed, tol, bland)
		if q < 0 {
			// Optimality must hold on freshly recomputed reduced costs
			// over a fresh factorization: both the eta file and the
			// incremental pricing vector accumulate drift.
			if len(rv.etas) == 0 {
				return StatusOptimal, nil
			}
			if err := rv.refactorize(); err != nil {
				return 0, err
			}
			rv.recomputeXB()
			rv.refreshPricing(cost)
			if q = rv.pickEntering(allowed, tol, bland); q < 0 {
				return StatusOptimal, nil
			}
		}

		rv.ftranColumn(q)
		pr, forced := rv.ratioTest(bland, barArtificial, tol)
		if pr < 0 {
			return StatusUnbounded, nil
		}
		if !forced && math.Abs(rv.w[pr]) < 1e-7 && len(rv.etas) > 0 {
			// Tiny pivot on a stale eta file: refactorize and retry the
			// whole step with honest numbers.
			if err := rv.refactorize(); err != nil {
				return 0, err
			}
			rv.recomputeXB()
			rv.refreshPricing(cost)
			continue
		}

		theta := 0.0
		if !forced {
			x := rv.xB[pr]
			if x < 0 {
				x = 0
			}
			theta = x / rv.w[pr]
			if theta < 0 {
				theta = 0
			}
		}
		rv.updatePricing(pr, q)
		rv.applyPivot(pr, q, theta)
		rv.iters++
		if theta <= tol {
			stall++
		} else {
			stall = 0
		}
		if rv.needRefactor() {
			if err := rv.refactorize(); err != nil {
				return 0, err
			}
			rv.recomputeXB()
			rv.refreshPricing(cost)
		}
	}
}

// evictArtificials pivots zero-valued basic artificials out of the basis
// after phase 1, mirroring the dense path. Rows whose artificial cannot
// be replaced are redundant; their artificial stays basic at zero and
// the phase-2 ratio guard keeps it there.
func (rv *revised) evictArtificials() error {
	cf := rv.cf
	tol := math.Sqrt(rv.opts.Tol)
	rho := make([]float64, cf.m)
	for i := 0; i < cf.m; i++ {
		if !cf.isArtificial(rv.basis[i]) {
			continue
		}
		if ctxErr(rv.opts.ctx) != nil {
			return canceledErr(rv.opts.ctx)
		}
		for k := range rho {
			rho[k] = 0
		}
		rho[i] = 1
		rv.btranApply(rho) // ρ = e_iᵀ·B⁻¹
		for j := 0; j < cf.artStart; j++ {
			if rv.basisPos[j] >= 0 {
				continue
			}
			var v float64
			idx, val := cf.column(j)
			for p, r := range idx {
				v += rho[r] * val[p]
			}
			if math.Abs(v) <= tol {
				continue
			}
			rv.ftranColumn(j)
			rv.applyPivot(i, j, rv.xB[i]/rv.w[i])
			if len(rv.etas) >= refactorEvery {
				if err := rv.refactorize(); err != nil {
					return err
				}
				rv.recomputeXB()
			}
			break
		}
	}
	return nil
}

// phase2Cost builds the canonical (minimisation) phase-2 cost vector.
func (rv *revised) phase2Cost() []float64 {
	cost := make([]float64, rv.cf.totalCols)
	for v := 0; v < rv.cf.nStruct; v++ {
		c := rv.model.obj[v]
		if rv.model.sense == Maximize {
			c = -c
		}
		cost[v] = c
	}
	return cost
}

// finish restores the true right-hand sides, refactorizes the final
// basis, recomputes the basic values exactly, and extracts the solution
// and duals. It reports errRestoreInfeasible when the basis chosen under
// perturbation is not feasible for the true data.
func (rv *revised) finish(cost []float64) (*Solution, error) {
	copy(rv.b, rv.trueB)
	if err := rv.refactorize(); err != nil {
		return nil, err
	}
	rv.recomputeXB()
	for _, v := range rv.xB {
		if v < -1e-7 {
			return nil, errRestoreInfeasible
		}
	}

	sol := &Solution{
		Status:           StatusOptimal,
		X:                make([]float64, rv.cf.nStruct),
		Iterations:       rv.iters,
		Refactorizations: rv.refacts,
		Basis:            append([]int(nil), rv.basis...),
	}
	for i, j := range rv.basis {
		if j < rv.cf.nStruct {
			sol.X[j] = rv.xB[i]
		}
	}
	rv.computeDuals(cost)
	sol.Duals = make([]float64, rv.cf.m)
	for i := 0; i < rv.cf.m; i++ {
		y := rv.y[i] / rv.cf.rowScale[i]
		if rv.model.sense == Maximize {
			y = -y
		}
		sol.Duals[i] = y
	}
	return sol, nil
}

// run executes the full two-phase solve on this state.
func (rv *revised) run() (*Solution, error) {
	if err := rv.refactorize(); err != nil {
		return nil, err
	}
	rv.recomputeXB()

	needPhase1 := false
	cost1 := make([]float64, rv.cf.totalCols)
	for _, j := range rv.basis {
		if rv.cf.isArtificial(j) {
			cost1[j] = 1
			needPhase1 = true
		}
	}
	if needPhase1 {
		st, err := rv.runPhase(cost1, func(int) bool { return true }, false)
		if err != nil {
			return nil, err
		}
		switch st {
		case StatusCanceled:
			return &Solution{Status: StatusCanceled, Iterations: rv.iters}, canceledErr(rv.opts.ctx)
		case StatusIterLimit:
			return &Solution{Status: StatusIterLimit, Iterations: rv.iters}, ErrIterationLimit
		case StatusUnbounded:
			return &Solution{Status: StatusInfeasible, Iterations: rv.iters},
				fmt.Errorf("%w: phase 1 reported unbounded", ErrInfeasible)
		}
		var z1 float64
		for i, j := range rv.basis {
			if rv.cf.isArtificial(j) {
				z1 += rv.xB[i]
			}
		}
		if z1 > math.Sqrt(rv.opts.Tol) {
			return &Solution{Status: StatusInfeasible, Iterations: rv.iters},
				fmt.Errorf("%w: phase-1 objective %g", ErrInfeasible, z1)
		}
		if err := rv.evictArtificials(); err != nil {
			return nil, err
		}
	}

	cost2 := rv.phase2Cost()
	st, err := rv.runPhase(cost2, func(j int) bool { return !rv.cf.isArtificial(j) }, true)
	if err != nil {
		return nil, err
	}
	switch st {
	case StatusCanceled:
		return &Solution{Status: StatusCanceled, Iterations: rv.iters}, canceledErr(rv.opts.ctx)
	case StatusIterLimit:
		return &Solution{Status: StatusIterLimit, Iterations: rv.iters}, ErrIterationLimit
	case StatusUnbounded:
		return &Solution{Status: StatusUnbounded, Iterations: rv.iters}, ErrUnbounded
	}
	return rv.finish(cost2)
}

// runWarm solves starting from a caller-provided basis (typically the
// Basis of a Solution to a neighbouring model, e.g. the previous α in a
// sweep). It reports ok=false when the warm solve cannot deliver an
// optimum — wrong shape, contains an artificial, singular, primal
// infeasible here, or the run itself fails — in which case the caller
// should cold-start.
func (rv *revised) runWarm(warm []int) (sol *Solution, ok bool) {
	cf := rv.cf
	if len(warm) != cf.m {
		return nil, false
	}
	seen := make([]bool, cf.totalCols)
	for _, j := range warm {
		if j < 0 || j >= cf.totalCols || cf.isArtificial(j) || seen[j] {
			return nil, false
		}
		seen[j] = true
	}
	for j := range rv.basisPos {
		rv.basisPos[j] = -1
	}
	copy(rv.basis, warm)
	for i, j := range rv.basis {
		rv.basisPos[j] = i
	}
	if err := rv.refactorize(); err != nil {
		return nil, false
	}
	rv.recomputeXB()
	for _, v := range rv.xB {
		if v < -1e-7 {
			return nil, false // primal infeasible here; cold-start
		}
	}

	cost2 := rv.phase2Cost()
	st, err := rv.runPhase(cost2, func(j int) bool { return !rv.cf.isArtificial(j) }, true)
	if err != nil || st != StatusOptimal {
		// A warm basis must cost at most a cold start: a stale basis that
		// stalls into the iteration limit (or drifts into an unbounded
		// reading) is not a verdict about the model — hand the solve back
		// to the cold perturbed path.
		return nil, false
	}
	sol, err = rv.finish(cost2)
	if err != nil {
		return nil, false
	}
	return sol, true
}

// solveSparse runs the revised simplex on the canonical form: a
// warm-started run when Options.Basis applies, otherwise the perturbed
// two-phase solve with an unperturbed retry should the perturbed basis
// turn out infeasible for the true data.
func (m *Model) solveSparse(cf *canonForm, opts Options) (*Solution, error) {
	if cf.m == 0 {
		return nil, errSparseFallback
	}
	if opts.Basis != nil {
		rv := newRevised(m, cf, opts, false)
		if sol, ok := rv.runWarm(opts.Basis); ok {
			return sol, nil
		}
		if ctxErr(opts.ctx) != nil {
			return &Solution{Status: StatusCanceled}, canceledErr(opts.ctx)
		}
	}
	rv := newRevised(m, cf, opts, true)
	sol, err := rv.run()
	if errors.Is(err, errRestoreInfeasible) {
		rv = newRevised(m, cf, opts, false)
		sol, err = rv.run()
		if errors.Is(err, errRestoreInfeasible) {
			return nil, errSparseFallback
		}
	}
	return sol, err
}
