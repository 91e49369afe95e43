package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	StatusOptimal Status = iota
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit
	// StatusCanceled reports that the SolveCtx context was cancelled
	// before the solve finished; the paired error wraps ErrCanceled.
	StatusCanceled
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusCanceled:
		return "canceled"
	default:
		return "iteration-limit"
	}
}

// Cause names the termination class of a solve error for display
// ("canceled", "iteration-limit", "infeasible", "unbounded",
// "bad-model"), or "" for a nil error and "error" for anything else.
func Cause(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrIterationLimit):
		return "iteration-limit"
	case errors.Is(err, ErrInfeasible):
		return "infeasible"
	case errors.Is(err, ErrUnbounded):
		return "unbounded"
	case errors.Is(err, ErrBadModel):
		return "bad-model"
	default:
		return "error"
	}
}

// Solution holds the result of solving a Model.
type Solution struct {
	Status     Status
	X          []float64 // values of the structural variables
	Objective  float64   // objective value in the model's original sense
	Duals      []float64 // one dual per constraint, in the model's original sense
	Iterations int
	// BoundFlips counts bounded-simplex iterations that moved a nonbasic
	// variable across its box without a basis change.
	BoundFlips int
	// Refactorizations counts basis refactorizations performed by the
	// revised simplex. On the interior point route it counts LDLᵀ
	// factorizations of the normal equations — one per
	// predictor-corrector iteration.
	Refactorizations int
	// Basis is an opaque warm-start token: the final basis of whichever
	// solver route produced this solution (for the automatic dual route
	// it indexes the dual's canonical columns, not this model's, and
	// after presolve it indexes the reduced model's rows). Feed it to
	// Options.Basis of a solve with the identical constraint shape and
	// the same Method — e.g. the same design LP at a neighbouring α —
	// where presolve and route selection repeat deterministically; a
	// basis that does not fit the shape is ignored and the solve
	// cold-starts.
	Basis []int
	// ActiveRows lists, in this model's original row indices, the
	// constraints whose dual variable sat in the final basis — the rows
	// the solver left "active" at the optimum. Together with AtBound it
	// describes the optimal basis structurally (rather than as the opaque
	// route-specific token in Basis), so a caller that understands its
	// model's geometry can transfer the basis to a *different* model of
	// the same family via Options.CrashRows/CrashBounds. Populated by the
	// dual route only; nil elsewhere. Rows materialised from variable
	// bounds during dualization are not representable here and are
	// omitted.
	ActiveRows []int
	// AtBound lists the variables whose dual-constraint slack sat in the
	// final dual basis — variables resting on a bound with (possibly)
	// nonzero reduced cost at the optimum. Populated by the dual route
	// only; nil elsewhere. len(ActiveRows)+len(AtBound) equals the dual
	// basis dimension (one slot per variable) when nothing was omitted.
	AtBound []int
	// Presolve reports the reductions applied before the solve (zero
	// under Options.NoPresolve).
	Presolve PresolveStats
	// Route names the engine that produced the solution.
	Route Route
	// Gap is the relative duality gap at termination on the interior
	// point route (zero on the simplex routes, which terminate at a
	// vertex where the gap is exact by construction).
	Gap float64
}

// Value returns the solved value of variable v. A v outside [0, len(X))
// yields NaN, not an error — callers that cannot guarantee the index is
// in range should use ValueChecked instead.
func (s *Solution) Value(v int) float64 {
	if v < 0 || v >= len(s.X) {
		return math.NaN()
	}
	return s.X[v]
}

// ValueChecked returns the solved value of variable v, or an error
// (wrapping ErrBadModel) when v is out of range.
func (s *Solution) ValueChecked(v int) (float64, error) {
	if v < 0 || v >= len(s.X) {
		return 0, fmt.Errorf("lp: Solution.Value: variable %d out of range [0,%d): %w", v, len(s.X), ErrBadModel)
	}
	return s.X[v], nil
}

// Route names the engine that produced a Solution. It is a string type,
// so it prints and compares as the route name.
type Route string

// Solver routes.
const (
	// RouteBounded is the bounded-variable revised simplex on the
	// (presolved) model itself.
	RouteBounded Route = "bounded"
	// RouteDual is the same simplex run on the model's explicit dual.
	RouteDual Route = "dual"
	// RouteIPM is the primal-dual interior point method.
	RouteIPM Route = "ipm"
)

// Method selects the solver back end.
type Method int

// Solver back ends.
const (
	// MethodAuto (the zero value) presolves the model, tries the interior
	// point method on large hint-free models, dualizes tall ones, and
	// otherwise runs the bounded-variable revised simplex.
	MethodAuto Method = iota
	// MethodSparse forces the bounded-variable revised simplex (with
	// presolve unless Options.NoPresolve is set; no dual route).
	MethodSparse
	// MethodIPM forces the primal-dual interior point method (Mehrotra
	// predictor-corrector on the normal equations, sparse LDLᵀ with
	// fill-reducing ordering). Presolve still applies unless disabled.
	// Shapes the method declines fall through to the simplex route.
	MethodIPM
)

// Options tunes the simplex solver. The zero value selects defaults.
type Options struct {
	// MaxIterations bounds total pivots across both phases. 0 scales the
	// budget with the model: max(20000, 200·(rows+cols), 25·nonzeros),
	// where nonzeros counts the canonical matrix including slack columns
	// — so large sparse models get headroom proportional to their actual
	// size rather than tripping a fixed floor.
	MaxIterations int
	// Tol is the numeric tolerance for feasibility, pivoting, and reduced
	// costs. 0 means 1e-9.
	Tol float64
	// Method picks the solver back end; the zero value is MethodAuto.
	Method Method
	// Basis warm-starts the sparse solver from a previous Solution.Basis.
	// It must come from a solve of a model with the identical canonical
	// constraint shape (same rows, columns, and operators — coefficients
	// may differ) under the same Method, so the token was produced by
	// the same solver route; a basis that does not apply is ignored and
	// the solve cold-starts.
	Basis []int
	// NoPresolve skips the presolve reductions. Used by tests that pin
	// the presolved and unreduced solves against each other.
	NoPresolve bool
	// CrashRows lists constraints the caller expects to be tight at the
	// optimum (original row indices). The dual route seeds its advanced
	// basis from them when they determine one exactly; a hint that does
	// not fit — wrong cardinality after presolve, singular, or primal
	// infeasible — is ignored and the solve cold-starts, so a wrong guess
	// costs nothing but the attempt. design uses this to start the
	// BASICDP LPs at the geometric-mechanism vertex (column sums plus the
	// away-from-diagonal ratio rows), which cuts cold-solve pivot counts
	// by an order of magnitude. An explicit Options.Basis wins over the
	// hint.
	CrashRows []int
	// CrashBounds lists variables the caller expects to rest on a bound
	// with nonzero reduced cost at the optimum. The dual route seeds the
	// corresponding dual-slack columns into the advanced basis, so a
	// hinted basis can mix tight rows (CrashRows) with at-bound variables
	// — exactly the shape Solution.ActiveRows/AtBound report from a
	// previous solve of the same family. Subject to the same
	// all-or-nothing validation as CrashRows.
	CrashBounds []int

	// ctx carries the cancellation signal set by SolveCtx. Every solver
	// loop — bounded revised simplex, interior point, and the basis
	// factorizations — checks it at iteration boundaries and abandons the
	// solve with ErrCanceled when it fires. nil means no cancellation
	// (Solve / SolveWith).
	ctx context.Context
}

// ctxErr returns the context's cause if ctx is cancelled, else nil. The
// Done-channel select avoids taking the context mutex on the per-pivot
// hot path.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	default:
		return nil
	}
}

// canceledErr wraps the context's cause in ErrCanceled, so errors.Is
// matches both the lp sentinel and the underlying context error.
func canceledErr(ctx context.Context) error {
	cause := context.Canceled
	if ctx != nil {
		if c := context.Cause(ctx); c != nil {
			cause = c
		}
	}
	return errors.Join(ErrCanceled, cause)
}

func (o Options) withDefaults(rows, cols, nnz int) Options {
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 200 * (rows + cols)
		if byNNZ := 25 * nnz; byNNZ > o.MaxIterations {
			o.MaxIterations = byNNZ
		}
		if o.MaxIterations < 20000 {
			o.MaxIterations = 20000
		}
	}
	return o
}

// Solve optimises the model with default options.
func (m *Model) Solve() (*Solution, error) {
	return m.SolveWith(Options{})
}

// SolveCtx is SolveWith under a context: the solver loops check ctx at
// iteration boundaries (pivots, bound flips, factorization columns) and
// abandon the solve with an error wrapping ErrCanceled — and a Solution
// carrying StatusCanceled — as soon as it fires. Partial factorizations
// and eta files are dropped on the floor; no fallback route runs after a
// cancellation, so a dead caller stops burning CPU within one pivot.
func (m *Model) SolveCtx(ctx context.Context, opts Options) (*Solution, error) {
	opts.ctx = ctx
	return m.SolveWith(opts)
}

// SolveWith optimises the model. It presolves (unless Options.NoPresolve
// is set) and then runs one of two production engines on the reduced
// model: the bounded-variable revised simplex (bounded.go), called
// directly or through the dual route for tall shapes (dual.go), or the
// Mehrotra interior point method (ipm.go), which is tried first on
// large hint-free models and falls through to the simplex when it cannot
// deliver a feasible optimum. It returns ErrInfeasible, ErrUnbounded,
// or ErrIterationLimit for those outcomes (with a Solution carrying the
// matching Status), and nil for an optimal solution. A solve the simplex
// cannot finish — no factorizable basis, or an optimal point that fails
// the feasibility check — and an unknown Method return an error wrapping
// ErrBadModel.
//
// The mechanism-design LPs are massively degenerate (hundreds of
// homogeneous ratio rows meet at every vertex), which both stalls the
// simplex and lets numerical drift choose bad bases. The simplex
// therefore runs its primary solve on right-hand sides carrying a tiny
// deterministic perturbation — making the polytope simple — after which
// the true data is restored and the solution re-derived against it, with
// an unperturbed solve as fallback.
func (m *Model) SolveWith(opts Options) (*Solution, error) {
	if opts.Method < MethodAuto || opts.Method > MethodIPM {
		return nil, fmt.Errorf("lp: unknown Method %d: %w", opts.Method, ErrBadModel)
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-9
	}
	if err := ctxErr(opts.ctx); err != nil {
		return &Solution{Status: StatusCanceled}, canceledErr(opts.ctx)
	}

	target := m
	var pre *presolved
	if !opts.NoPresolve {
		var err error
		pre, err = presolve(m)
		if err != nil {
			return &Solution{Status: StatusInfeasible}, err
		}
		target = pre.reduced
		if len(opts.CrashRows) > 0 {
			// Crash hints follow the rows into the reduced index space;
			// hints on rows presolve removed are dropped (the dual route
			// rejects a hint set that no longer determines a basis).
			origToRed := make(map[int]int, len(pre.rowMap))
			for red, orig := range pre.rowMap {
				origToRed[orig] = red
			}
			mapped := make([]int, 0, len(opts.CrashRows))
			for _, r := range opts.CrashRows {
				if red, ok := origToRed[r]; ok {
					mapped = append(mapped, red)
				}
			}
			opts.CrashRows = mapped
		}
	}
	sol, err := target.solveReduced(opts)
	if sol != nil && pre != nil {
		sol.Presolve = pre.stats
		if err == nil && sol.Status == StatusOptimal {
			pre.postsolve(sol)
			// ActiveRows came back in reduced row indices; surface them in
			// the caller's original indices, mirroring the Duals mapping.
			if len(sol.ActiveRows) > 0 {
				for k, red := range sol.ActiveRows {
					sol.ActiveRows[k] = pre.rowMap[red]
				}
			}
		}
	}
	if err != nil {
		return sol, err
	}
	m.finishSolution(sol, opts)
	return sol, nil
}

// solveReduced routes a presolved model to the interior point method,
// the dual route or the bounded simplex. The simplex is the last stop:
// its infeasible, unbounded and iteration-limit verdicts are confirmed
// on a fresh factorization and stand as given, and its optimal point
// ships only if it passes the feasibility check.
func (m *Model) solveReduced(opts Options) (*Solution, error) {
	cf := canonicalize(m)
	opts = opts.withDefaults(cf.m, cf.totalCols, cf.nnz())

	// Interior point first: forced by MethodIPM, or auto-picked for
	// models past the normal-equations crossover that carry no
	// warm-start hints (a hinted basis makes the simplex nearly free,
	// which no cold IPM matches). On the auto route only an optimal,
	// feasibility-checked point is accepted — IPM infeasibility and
	// unboundedness verdicts come from iterate divergence, so the
	// simplex re-derives them with its Farkas-definitive tests.
	if opts.Method == MethodIPM || (opts.Method == MethodAuto && wantIPM(cf, opts)) {
		sol, err := m.solveIPM(cf, opts)
		if errors.Is(err, ErrCanceled) {
			return sol, err
		}
		if err == nil && m.CheckFeasible(sol.X, 1e-7) == nil {
			return sol, nil
		}
		if opts.Method == MethodIPM {
			if err != nil && !errors.Is(err, errSparseFallback) {
				return sol, err
			}
			// A declined forced-IPM solve continues down the same route
			// the auto method would take, dual route included.
			opts.Method = MethodAuto
		}
	}

	// Tall models solve far faster through their dual: every
	// revised-simplex cost scales with the basis dimension (= rows).
	if opts.Method == MethodAuto && wantDual(cf) {
		sol, err := m.solveViaDual(opts)
		if errors.Is(err, ErrCanceled) {
			return sol, err
		}
		if err == nil && m.CheckFeasible(sol.X, 1e-7) == nil {
			sol.Route = RouteDual
			return sol, nil
		}
	}

	sol, err := m.solveBounded(cf, opts)
	if errors.Is(err, errSparseFallback) {
		// Never leak the unexported sentinel to callers.
		return nil, fmt.Errorf("lp: bounded simplex could not factorize a basis or restore the true data: %w", ErrBadModel)
	}
	if err != nil {
		return sol, err
	}
	sol.Route = RouteBounded
	ferr := m.CheckFeasible(sol.X, 1e-7)
	if ferr == nil {
		return sol, nil
	}
	// Residuals scale with model size, so on the largest models an
	// optimal point that just misses the strict tolerance is accepted
	// under a looser absolute bound.
	if cf.m*(cf.totalCols+1) > looseAcceptCells && m.CheckFeasible(sol.X, 1e-5) == nil {
		return sol, nil
	}
	return nil, fmt.Errorf("lp: bounded simplex returned an infeasible point (%v): %w", ferr, ErrBadModel)
}

// looseAcceptCells is the canonical size (rows × columns) past which
// solveReduced accepts a simplex point at 1e-5 instead of 1e-7: about
// the n=96 design LP.
const looseAcceptCells = 50_000_000

// finishSolution rounds values a hair outside their box back onto it —
// so downstream probability checks do not trip over -1e-15 — and
// evaluates the objective at the returned point.
func (m *Model) finishSolution(sol *Solution, opts Options) {
	for i, v := range sol.X {
		lo, hi := m.lo[i], m.hi[i]
		if v < lo && v > lo-opts.Tol*10 {
			sol.X[i] = lo
		} else if v > hi && v < hi+opts.Tol*10 {
			sol.X[i] = hi
		}
	}
	sol.Objective = m.EvalObjective(sol.X)
}
