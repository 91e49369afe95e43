package lp

import (
	"math"
	"math/rand"
	"testing"
)

// The tests in this file pin the sparse revised simplex to the dense
// tableau oracle: both back ends must agree on objectives and duals for
// identical models, warm starts must change nothing but the pivot count,
// and the classic cycling instance must terminate.

// TestBealeCyclingExample solves Beale's example, the textbook instance
// on which Dantzig pricing with a naive ratio test cycles forever. The
// anti-cycling machinery (perturbation plus the Bland switch) must
// terminate at the known optimum −1/20.
func TestBealeCyclingExample(t *testing.T) {
	build := func() *Model {
		m := NewModel("beale", Minimize)
		x1 := m.AddVariable("x1")
		x2 := m.AddVariable("x2")
		x3 := m.AddVariable("x3")
		x4 := m.AddVariable("x4")
		m.SetObjective(x1, -0.75)
		m.SetObjective(x2, 150)
		m.SetObjective(x3, -0.02)
		m.SetObjective(x4, 6)
		m.AddConstraint("c1", []Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
		m.AddConstraint("c2", []Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
		m.AddConstraint("c3", []Term{{x3, 1}}, LE, 1)
		return m
	}
	for _, method := range []Method{MethodSparse, methodDense, MethodAuto} {
		sol, err := build().solveAny(Options{Method: method})
		if err != nil {
			t.Fatalf("method %d: %v", method, err)
		}
		if math.Abs(sol.Objective-(-0.05)) > 1e-9 {
			t.Fatalf("method %d: objective %v, want -0.05", method, sol.Objective)
		}
	}
}

// randomGeneralPositionLP builds a feasible, bounded LP whose data is in
// general position (continuous random coefficients), so the optimal
// duals are unique almost surely and the two back ends must agree on
// them exactly, not just on the objective.
func randomGeneralPositionLP(rng *rand.Rand) *Model {
	nv := 2 + rng.Intn(6)
	nc := 2 + rng.Intn(8)
	m := NewModel("xval", Maximize)
	vars := make([]int, nv)
	for i := range vars {
		vars[i] = m.AddVariable("")
		m.SetObjective(vars[i], 0.25+rng.Float64())
	}
	// Box keeps it bounded; the origin keeps it feasible.
	for _, v := range vars {
		m.AddConstraint("", []Term{{v, 1}}, LE, 1+9*rng.Float64())
	}
	for k := 0; k < nc; k++ {
		terms := make([]Term, 0, nv)
		for _, v := range vars {
			if rng.Float64() < 0.7 {
				terms = append(terms, Term{v, 0.1 + rng.Float64()})
			}
		}
		if len(terms) == 0 {
			continue
		}
		m.AddConstraint("", terms, LE, 1+19*rng.Float64())
	}
	return m
}

// randomEqualityLP adds equality and ≥ rows so phase 1 and artificial
// eviction run on both back ends.
func randomEqualityLP(rng *rand.Rand) *Model {
	nv := 3 + rng.Intn(5)
	m := NewModel("xval-eq", Minimize)
	vars := make([]int, nv)
	for i := range vars {
		vars[i] = m.AddVariable("")
		m.SetObjective(vars[i], 0.25+rng.Float64())
	}
	// Normalisation row plus random lower bounds: feasible (spread mass)
	// and bounded below (non-negative costs).
	terms := make([]Term, nv)
	for i, v := range vars {
		terms[i] = Term{v, 1}
	}
	m.AddConstraint("", terms, EQ, 1)
	for k := 0; k < 2; k++ {
		v := vars[rng.Intn(nv)]
		m.AddConstraint("", []Term{{v, 1}}, GE, rng.Float64()/float64(2*nv))
	}
	return m
}

// TestSparseDenseCrossValidation solves identical random models through
// both back ends and requires objectives and duals to agree to 1e-6.
func TestSparseDenseCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		var m *Model
		if trial%3 == 2 {
			m = randomEqualityLP(rng)
		} else {
			m = randomGeneralPositionLP(rng)
		}
		dense, err := m.solveAny(Options{Method: methodDense})
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		sparse, err := m.SolveWith(Options{Method: MethodSparse})
		if err != nil {
			t.Fatalf("trial %d: sparse: %v", trial, err)
		}
		if d := math.Abs(dense.Objective - sparse.Objective); d > 1e-6*(1+math.Abs(dense.Objective)) {
			t.Fatalf("trial %d: objectives differ by %g: dense %v, sparse %v",
				trial, d, dense.Objective, sparse.Objective)
		}
		for i := range dense.Duals {
			if d := math.Abs(dense.Duals[i] - sparse.Duals[i]); d > 1e-6*(1+math.Abs(dense.Duals[i])) {
				t.Fatalf("trial %d: dual %d differs by %g: dense %v, sparse %v",
					trial, i, d, dense.Duals[i], sparse.Duals[i])
			}
		}
		if err := m.CheckFeasible(sparse.X, 1e-7); err != nil {
			t.Fatalf("trial %d: sparse point infeasible: %v", trial, err)
		}
	}
}

// designLikeLP builds the n=4 BASICDP + weak-honesty design LP — small
// but with the real structure (column sums, ratio rows, GE floors). It
// shares the model builder with the benchmark suite.
func designLikeLP(alpha float64) *Model {
	return benchDesignModel(4, alpha)
}

// TestWarmStartMatchesColdStart re-solves a design-shaped LP from its own
// optimal basis (expecting an immediate finish) and warm-starts the
// neighbouring-α model from it, requiring the same optimum as a cold
// solve in both cases.
func TestWarmStartMatchesColdStart(t *testing.T) {
	cold, err := designLikeLP(0.7).SolveWith(Options{Method: MethodSparse})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Basis == nil {
		t.Fatal("cold solve returned no basis")
	}

	resolved, err := designLikeLP(0.7).SolveWith(Options{Method: MethodSparse, Basis: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resolved.Objective-cold.Objective) > 1e-9 {
		t.Fatalf("re-solve objective %v, want %v", resolved.Objective, cold.Objective)
	}
	if resolved.Iterations > cold.Iterations/2 {
		t.Fatalf("warm re-solve took %d iterations, cold took %d; expected a near-free finish",
			resolved.Iterations, cold.Iterations)
	}

	// Neighbouring α: the warm basis may or may not stay optimal, but the
	// result must match the cold solve exactly.
	coldNext, err := designLikeLP(0.72).SolveWith(Options{Method: MethodSparse})
	if err != nil {
		t.Fatal(err)
	}
	warmNext, err := designLikeLP(0.72).SolveWith(Options{Method: MethodSparse, Basis: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warmNext.Objective-coldNext.Objective) > 1e-9 {
		t.Fatalf("warm objective %v, cold objective %v", warmNext.Objective, coldNext.Objective)
	}
}

// TestWarmStartRejectsBadBasis feeds garbage bases and expects a clean
// cold-start solve, not a failure.
func TestWarmStartRejectsBadBasis(t *testing.T) {
	for _, basis := range [][]int{
		{0},                      // wrong length
		{-1, 2, 3, 4, 5, 6},      // out of range
		{2, 2, 3, 4, 5, 6},       // duplicate
		{1 << 20, 1, 2, 3, 4, 5}, // way out of range
	} {
		m := designLikeLP(0.8)
		sol, err := m.SolveWith(Options{Method: MethodSparse, Basis: basis})
		if err != nil {
			t.Fatalf("basis %v: %v", basis, err)
		}
		if err := m.CheckFeasible(sol.X, 1e-7); err != nil {
			t.Fatalf("basis %v: %v", basis, err)
		}
	}
}

// TestSparseDegenerateLP runs the heavily degenerate robustness instance
// through the sparse back end explicitly.
func TestSparseDegenerateLP(t *testing.T) {
	for _, k := range []int{8, 24, 64, 120} {
		m := buildDegenerateLP(k)
		sol, err := m.SolveWith(Options{Method: MethodSparse})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := m.CheckFeasible(sol.X, 1e-7); err != nil {
			t.Fatalf("k=%d: returned infeasible point: %v", k, err)
		}
		dense, err := m.solveAny(Options{Method: methodDense})
		if err != nil {
			t.Fatalf("k=%d dense: %v", k, err)
		}
		if d := math.Abs(sol.Objective - dense.Objective); d > 1e-7*(1+math.Abs(dense.Objective)) {
			t.Fatalf("k=%d: sparse %v vs dense %v", k, sol.Objective, dense.Objective)
		}
	}
}

// tallDesignModel is benchDesignModel plus the row/column-monotonicity
// difference rows of the full WM LP, which push the row count past
// 3 rows per variable — the shape the dual-route heuristic targets.
// Variable indices follow benchDesignModel's construction order:
// cell (i, j) is variable i·(n+1)+j.
func tallDesignModel(n int, alpha float64) *Model {
	m := benchDesignModel(n, alpha)
	v := func(i, j int) int { return i*(n+1) + j }
	for i := 0; i <= n; i++ {
		for j := 1; j <= i; j++ {
			m.AddConstraint("", []Term{{v(i, j-1), 1}, {v(i, j), -1}}, LE, 0)
		}
		for j := i; j < n; j++ {
			m.AddConstraint("", []Term{{v(i, j+1), 1}, {v(i, j), -1}}, LE, 0)
		}
	}
	for j := 0; j <= n; j++ {
		for i := 1; i <= j; i++ {
			m.AddConstraint("", []Term{{v(i-1, j), 1}, {v(i, j), -1}}, LE, 0)
		}
		for i := j; i < n; i++ {
			m.AddConstraint("", []Term{{v(i+1, j), 1}, {v(i, j), -1}}, LE, 0)
		}
	}
	return m
}

// verifyDualCertificate checks that sol.Duals is a valid optimality
// certificate for the minimisation model m: sign conditions per
// operator, dual feasibility Aᵀy ≤ c, and strong duality bᵀy = cᵀx.
// (The massively degenerate design LPs have non-unique optimal duals,
// so elementwise comparison between solvers is only meaningful on the
// general-position cross-validation instances.)
func verifyDualCertificate(t *testing.T, m *Model, sol *Solution, tol float64) {
	t.Helper()
	var by float64
	aty := make([]float64, m.NumVariables())
	for i := 0; i < m.NumConstraints(); i++ {
		c := m.Constraint(i)
		y := sol.Duals[i]
		switch c.Op {
		case LE:
			if y > tol {
				t.Fatalf("row %d (≤): dual %v > 0", i, y)
			}
		case GE:
			if y < -tol {
				t.Fatalf("row %d (≥): dual %v < 0", i, y)
			}
		}
		by += c.RHS * y
		for _, term := range c.Terms {
			aty[term.Var] += term.Coeff * y
		}
	}
	for v := range aty {
		if aty[v] > m.ObjectiveCoeff(v)+tol {
			t.Fatalf("dual infeasible at var %d: (Aᵀy)[%d] = %v > c = %v", v, v, aty[v], m.ObjectiveCoeff(v))
		}
	}
	if d := math.Abs(by - sol.Objective); d > tol*(1+math.Abs(sol.Objective)) {
		t.Fatalf("strong duality gap: bᵀy = %v, objective = %v", by, sol.Objective)
	}
}

// TestDualRouteOnTallModel runs design-shaped models through the
// dualization route, checks the objective against the dense oracle, and
// validates the returned duals as an optimality certificate. The n=8
// instance is genuinely tall enough to trip the auto-path heuristic;
// the small one exercises the route directly.
func TestDualRouteOnTallModel(t *testing.T) {
	for _, n := range []int{4, 8} {
		m := tallDesignModel(n, 0.6)
		cf := canonicalize(m)
		if n == 8 && !wantDual(cf) {
			t.Fatalf("n=8 design model (m=%d, vars=%d) should qualify for the dual route", cf.m, cf.nStruct)
		}
		opts := Options{}.withDefaults(cf.m, cf.totalCols, cf.nnz())
		viaDual, err := m.solveViaDual(opts)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		m.finishSolution(viaDual, opts)
		dense, err := m.solveAny(Options{Method: methodDense})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := math.Abs(viaDual.Objective - dense.Objective); d > 1e-6 {
			t.Fatalf("n=%d: dual route objective %v, dense %v", n, viaDual.Objective, dense.Objective)
		}
		if err := m.CheckFeasible(viaDual.X, 1e-7); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		verifyDualCertificate(t, m, viaDual, 1e-6)
	}
}

// TestValueCheckedRange covers the documented NaN behaviour and the
// checked accessor.
func TestValueCheckedRange(t *testing.T) {
	m := NewModel("v", Maximize)
	x := m.AddVariable("x")
	m.SetObjective(x, 1)
	m.AddConstraint("c", []Term{{x, 1}}, LE, 3)
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(sol.Value(-1)) || !math.IsNaN(sol.Value(99)) {
		t.Fatal("out-of-range Value should be NaN")
	}
	if _, err := sol.ValueChecked(99); err == nil {
		t.Fatal("ValueChecked(99) should fail")
	}
	got, err := sol.ValueChecked(x)
	if err != nil || math.Abs(got-3) > 1e-9 {
		t.Fatalf("ValueChecked(x) = %v, %v", got, err)
	}
}
