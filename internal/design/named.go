package design

import (
	"context"
	"fmt"
	"sync"

	"privcount/internal/core"
	"privcount/internal/lp"
)

// This file provides the paper's named LP mechanisms and the Figure 5
// decision procedure. Results are not memoised here: the serving layer's
// cache and artifact store hold built mechanisms, and the capped
// warm-basis cache below makes a repeated or neighbouring solve cheap.

// WMProps is the property set the paper settles on for WM after the
// Figure 8 study: weak honesty with both monotonicity properties
// ("From now on, we use WM to refer to the mechanism with WH, RM and CM
// properties"), plus symmetry, which Theorem 1 grants at no cost and
// which halves the LP.
const WMProps = core.WeakHonesty | core.RowMonotone | core.ColumnMonotone | core.Symmetry

// warmKey identifies a family of structurally identical design LPs: the
// constraint pattern depends on (n, props, reduce, objective kind) but
// not on α, so the optimal basis of one solve warm-starts the next one
// across an α-sweep (internal/figures) or repeated service admissions.
type warmKey struct {
	n       int
	props   core.PropertySet
	p       float64
	d       int // L0D distance; -1 for the plain objectives
	band    int // band-path depth; 0 for full-matrix solves
	minimax bool
	reduce  bool
}

var (
	warmMu    sync.Mutex
	warmBases = map[warmKey][]int{}
)

// maxWarmBases caps the warm-basis cache. A basis is ~one int per LP
// row (tens of KB at serving sizes) and the key includes the
// request-controlled objective exponent, so without a bound a stream of
// distinct LP specs would grow the map forever. Sweeps hit one key
// repeatedly, so a small cap loses nothing.
const maxWarmBases = 64

// warmBasis returns the last optimal basis seen for the key, or nil.
func warmBasis(k warmKey) []int {
	warmMu.Lock()
	defer warmMu.Unlock()
	return warmBases[k]
}

// storeWarmBasis records the optimal basis of a finished solve. The LP
// layer validates shape compatibility on reuse, so a stale or mismatched
// basis can cost at most a cold start. At capacity an arbitrary entry is
// evicted — the cache is a best-effort accelerator, not a correctness
// structure.
func storeWarmBasis(k warmKey, basis []int) {
	if basis == nil {
		return
	}
	warmMu.Lock()
	if _, exists := warmBases[k]; !exists && len(warmBases) >= maxWarmBases {
		for victim := range warmBases {
			delete(warmBases, victim)
			break
		}
	}
	warmBases[k] = basis
	warmMu.Unlock()
}

// solveWarm solves the builder's model, reusing and refreshing the
// warm-basis cache for the key. A previous optimal basis (same key, e.g.
// a neighbouring α) wins over the structural crash hint; the hint makes
// cold solves start at the geometric-mechanism vertex instead of an
// all-slack basis. Failed solves — cancellations included — store
// nothing, so an abandoned build can never poison the cache with a
// half-pivoted basis.
func solveWarm(ctx context.Context, m *lp.Model, k warmKey, crash []int) (*lp.Solution, error) {
	return solveWarmCold(ctx, m, k, crash, lp.MethodAuto)
}

// solveWarmCold is solveWarm with an explicit engine for cold starts:
// when neither a cached basis nor a crash hint seeds the solve,
// coldMethod picks the engine. The minimax path passes the interior
// point method here — its epigraph LPs have no crash vertex and drown
// a cold simplex in degenerate pivots — while any available basis still
// routes to the simplex, which exploits it for nearly-free re-solves.
func solveWarmCold(ctx context.Context, m *lp.Model, k warmKey, crash []int, coldMethod lp.Method) (*lp.Solution, error) {
	basis := warmBasis(k)
	method := lp.MethodAuto
	if len(basis) == 0 && len(crash) == 0 {
		method = coldMethod
	}
	sol, err := m.SolveCtx(ctx, lp.Options{Basis: basis, CrashRows: crash, Method: method})
	if err != nil {
		return nil, err
	}
	storeWarmBasis(k, sol.Basis)
	return sol, nil
}

// ClearCache drops all warm-start bases (used by benchmarks that want to
// measure cold solves).
func ClearCache() {
	warmMu.Lock()
	warmBases = map[warmKey][]int{}
	warmMu.Unlock()
}

// WM returns the paper's weakly-honest mechanism for L0: the LP optimum
// under WH + RM + CM (+S at no cost). Its L0 cost is sandwiched between
// GM's 2α/(1+α) and EM's ≈ 2α/(1+α)·(n+1)/n (Figure 6).
func WM(n int, alpha float64) (*core.Mechanism, error) {
	return WMCtx(context.Background(), n, alpha)
}

// WMCtx is WM under a context (see SolveCtx for cancellation semantics).
func WMCtx(ctx context.Context, n int, alpha float64) (*core.Mechanism, error) {
	r, err := SolveCtx(ctx, Problem{N: n, Alpha: alpha, Props: WMProps, Objective: L0Objective, ReduceSymmetry: true})
	if err != nil {
		return nil, err
	}
	return r.Mechanism.Rename("WM"), nil
}

// WHOnly returns the LP optimum under weak honesty alone (+S), the other
// LP-defined behaviour in the Figure 5 flowchart. When n ≥ 2α/(1−α) it
// coincides with GM (Lemma 2).
func WHOnly(n int, alpha float64) (*core.Mechanism, error) {
	r, err := Solve(Problem{N: n, Alpha: alpha, Props: core.WeakHonesty | core.Symmetry, Objective: L0Objective, ReduceSymmetry: true})
	if err != nil {
		return nil, err
	}
	return r.Mechanism.Rename("WH-LP"), nil
}

// Unconstrained returns the §III optimum under BASICDP alone for the
// given objective exponent p — the mechanisms whose pathologies Figure 1
// displays. For p = 0 this is GM (Theorem 3).
func Unconstrained(n int, alpha float64, p float64) (*core.Mechanism, error) {
	r, err := Solve(Problem{N: n, Alpha: alpha, Objective: Objective{P: p}})
	if err != nil {
		return nil, err
	}
	return r.Mechanism.Rename(fmt.Sprintf("LP-L%g", p)), nil
}

// UnconstrainedL0D returns the BASICDP optimum minimising the probability
// of an answer more than d steps from the truth (the "L0 with d" loss of
// Figure 1).
func UnconstrainedL0D(n int, alpha float64, d int) (*core.Mechanism, error) {
	weights := core.UniformWeights(n)
	m, err := buildL0D(n, alpha, d, weights, 0, false)
	if err != nil {
		return nil, err
	}
	return m.Rename(fmt.Sprintf("LP-L0d%d", d)), nil
}

// ConstrainedL0D is UnconstrainedL0D plus structural properties.
func ConstrainedL0D(n int, alpha float64, d int, props core.PropertySet) (*core.Mechanism, error) {
	m, err := buildL0D(n, alpha, d, core.UniformWeights(n), props, props&core.Symmetry != 0)
	if err != nil {
		return nil, err
	}
	return m.Rename(fmt.Sprintf("LP-L0d%d[%s]", d, core.PropertySetString(props))), nil
}

// buildL0D solves with the step-loss objective: cost 1 when |i−j| > d.
func buildL0D(n int, alpha float64, d int, weights []float64, props core.PropertySet, reduce bool) (*core.Mechanism, error) {
	if d < 0 {
		return nil, fmt.Errorf("design: L0D with d=%d", d)
	}
	b := newBuilder(n, alpha, reduce)
	if err := b.addBasicDP(); err != nil {
		return nil, err
	}
	if err := b.addProperties(props); err != nil {
		return nil, err
	}
	for _, c := range b.cells() {
		if abs(c.i-c.j) > d {
			v := b.varOf(c.i, c.j)
			if err := b.model.SetObjective(v, b.model.ObjectiveCoeff(v)+weights[c.j]); err != nil {
				return nil, err
			}
		}
	}
	crash := b.finishModel()
	sol, err := solveWarm(context.Background(), b.model, warmKey{n: n, props: props, d: d, reduce: reduce}, crash)
	if err != nil {
		return nil, fmt.Errorf("design: L0D n=%d alpha=%g d=%d: %w", n, alpha, d, err)
	}
	return b.extract(sol, Problem{N: n, Alpha: alpha, Props: props})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Choice reports which mechanism the Figure 5 flowchart selects.
type Choice struct {
	Mechanism *core.Mechanism
	// Rule is the flowchart path taken, e.g. "fairness => EM".
	Rule string
	// Props is the full (closed) set of §IV-A properties the selected
	// mechanism guarantees — possibly a strict superset of the request.
	// Serving responses report it so clients know what they actually got.
	Props core.PropertySet
}

// GeometricProps returns the closed property set GM guarantees at
// (n, alpha): row properties and symmetry always, weak honesty once n
// clears the Lemma 2 threshold, and the column properties below the
// Lemma 3 cutoff. It is the single source of truth for GM's guarantees;
// every branch of Choose that answers with GM reports it, as does the
// serving layer for forced-GM specs.
func GeometricProps(n int, alpha float64) core.PropertySet {
	ps := core.RowMonotone | core.Symmetry
	if float64(n) >= core.GeometricWeakHonestyThreshold(alpha) {
		ps |= core.WeakHonesty
	}
	if alpha <= 0.5 {
		ps |= core.ColumnMonotone
	}
	return core.Closure(ps)
}

// IsLPBacked reports whether Choose(n, alpha, props) would resolve to an
// LP-designed mechanism rather than a closed form. It mirrors Choose's
// branch structure exactly (keep the two in lockstep); the serving layer
// uses it to bound admission of LP-backed specs without building them.
func IsLPBacked(n int, alpha float64, props core.PropertySet) bool {
	closed := core.Closure(props &^ core.Symmetry)
	switch {
	case closed&core.Fairness != 0:
		return false
	case closed&(core.ColumnHonesty|core.ColumnMonotone) != 0:
		return alpha > 0.5
	case closed&core.WeakHonesty != 0:
		return float64(n) < core.GeometricWeakHonestyThreshold(alpha)
	}
	return false
}

// Choose implements the Figure 5 decision procedure for the L0 objective:
// fairness demands EM; subsets of {S, RH, RM} are served by GM (Theorem
// 3); requests involving column properties need the WH+CM LP unless GM
// already satisfies them (α ≤ ½, Lemma 3); weak-honesty-only requests are
// served by GM once n ≥ 2α/(1−α) (Lemma 2) and by the WH LP below that.
func Choose(n int, alpha float64, props core.PropertySet) (*Choice, error) {
	return ChooseCtx(context.Background(), n, alpha, props)
}

// ChooseCtx is Choose under a context. The closed-form branches (GM, EM)
// never block; the LP branches thread ctx into the design solve, so an
// abandoned request cancels its LP mid-pivot (see SolveCtx).
func ChooseCtx(ctx context.Context, n int, alpha float64, props core.PropertySet) (*Choice, error) {
	props &^= core.Symmetry // free by Theorem 1; every branch provides it
	closed := core.Closure(props)

	switch {
	case closed&core.Fairness != 0:
		m, err := core.ExplicitFair(n, alpha)
		if err != nil {
			return nil, err
		}
		return &Choice{Mechanism: m, Rule: "fairness => EM", Props: core.AllProperties}, nil

	case closed&(core.ColumnHonesty|core.ColumnMonotone) != 0:
		if alpha <= 0.5 {
			m, err := core.Geometric(n, alpha)
			if err != nil {
				return nil, err
			}
			return &Choice{Mechanism: m, Rule: "column property, alpha <= 1/2 => GM (Lemma 3)",
				Props: GeometricProps(n, alpha)}, nil
		}
		m, err := WMCtx(ctx, n, alpha)
		if err != nil {
			return nil, err
		}
		return &Choice{Mechanism: m, Rule: "column property, alpha > 1/2 => WH+CM LP (WM)",
			Props: core.Closure(WMProps)}, nil

	case closed&core.WeakHonesty != 0:
		if float64(n) >= core.GeometricWeakHonestyThreshold(alpha) {
			m, err := core.Geometric(n, alpha)
			if err != nil {
				return nil, err
			}
			return &Choice{Mechanism: m, Rule: "weak honesty, n >= 2a/(1-a) => GM (Lemma 2)",
				Props: GeometricProps(n, alpha)}, nil
		}
		// Below the threshold the LP must carry any requested row
		// properties too, not just WH, or the serving layer would hand
		// back a mechanism weaker than asked for.
		r, err := SolveCtx(ctx, Problem{N: n, Alpha: alpha, Props: closed | core.Symmetry, Objective: L0Objective, ReduceSymmetry: true})
		if err != nil {
			return nil, err
		}
		return &Choice{Mechanism: r.Mechanism.Rename("WH-LP"), Rule: "weak honesty, n < 2a/(1-a) => WH LP",
			Props: closed | core.Symmetry}, nil

	default:
		m, err := core.Geometric(n, alpha)
		if err != nil {
			return nil, err
		}
		return &Choice{Mechanism: m, Rule: "subset of {S, RH, RM} => GM (Theorem 3)",
			Props: GeometricProps(n, alpha)}, nil
	}
}
