package lp

import (
	"math"
	"testing"
)

// fuzzModel decodes a small LP from fuzz bytes: at most 6 variables and
// 6 rows, both senses, all three operators, finite, infinite and
// zero-width boxes, and zero-row models. Data are small integers and
// halves, so every model is well conditioned and any disagreement
// between engines is a real defect, not a tolerance artefact. Missing
// bytes read as zero.
//
// Layout: nv-1, nr, sense; per variable cost, lo, width (0 = unbounded
// above, k > 0 = width k-1); per row op, rhs, one coefficient per
// variable.
func fuzzModel(data []byte) *Model {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	signed := func(mod int8) float64 { return float64(int8(next()) % mod) }

	nv := 1 + int(next())%6
	nr := int(next()) % 7
	sense := Minimize
	if next()&1 == 1 {
		sense = Maximize
	}
	m := NewModel("fuzz", sense)
	for v := 0; v < nv; v++ {
		m.AddVariable("")
		m.SetObjective(v, signed(5))
		lo := float64(next()%3) / 2
		hi := math.Inf(1)
		if w := next() % 4; w > 0 {
			hi = lo + float64(w-1)
		}
		m.SetBounds(v, lo, hi)
	}
	for r := 0; r < nr; r++ {
		op := Op(next() % 3)
		rhs := signed(7)
		terms := make([]Term, 0, nv)
		for v := 0; v < nv; v++ {
			if a := signed(4); a != 0 {
				terms = append(terms, Term{Var: v, Coeff: a})
			}
		}
		m.AddConstraint("", terms, op, rhs)
	}
	return m
}

// FuzzSolveAgainstOracle pins the production route to the dense tableau
// on small random models. The bounded engine's infeasible and unbounded
// verdicts ship without a second opinion, and zero-row models (no rows,
// or every row folded away by presolve) take its native no-row case, so
// this is the check that those answers are right: MethodAuto must agree
// with the oracle on the status and, when optimal, on the objective to
// 1e-6, and every optimal point must be feasible to 1e-7.
func FuzzSolveAgainstOracle(f *testing.F) {
	// min −x, x ∈ [0, 1], no rows: optimum at the upper bound.
	f.Add([]byte{0, 0, 0, 0xff, 0, 2})
	// min −x, x ≥ 0, no rows: unbounded.
	f.Add([]byte{0, 0, 0, 0xff, 0, 0})
	// max x − y with y fixed at 1 and x ∈ [0.5, 2.5], no rows.
	f.Add([]byte{1, 0, 1, 1, 1, 3, 0xff, 2, 1})
	// max x s.t. x ≤ 4: presolve folds the only row into the box.
	f.Add([]byte{0, 1, 1, 1, 0, 0, 0, 4, 1})
	// min x, x ∈ [0, 2], x ≥ 3: infeasible box (TestBoundedInfeasibleBox).
	f.Add([]byte{0, 1, 0, 1, 0, 3, 1, 3, 1})
	// x ≤ −1 with x ≥ 0: infeasible row (TestCauseClassification).
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0xff, 1})
	// max x + y s.t. x − y ≤ 1: unbounded ray (TestIPMUnboundedVerdict).
	f.Add([]byte{1, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1, 0xff})
	// min x + 2y s.t. x + y ≥ 2, x − y = 0: optimal at x = y = 1.
	f.Add([]byte{1, 2, 0, 1, 0, 0, 2, 0, 0, 1, 2, 1, 1, 2, 0, 1, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzModel(data)
		auto, autoErr := m.SolveWith(Options{})
		ref, refErr := m.solveAny(Options{Method: methodDense})
		if got, want := Cause(autoErr), Cause(refErr); got != want {
			t.Fatalf("auto %q (%v), dense oracle %q (%v)\n%s", got, autoErr, want, refErr, m.WriteLP())
		}
		if autoErr != nil {
			return
		}
		if d := math.Abs(auto.Objective - ref.Objective); d > 1e-6*(1+math.Abs(ref.Objective)) {
			t.Fatalf("objective: auto %v (route %s), dense oracle %v\n%s", auto.Objective, auto.Route, ref.Objective, m.WriteLP())
		}
		for name, sol := range map[string]*Solution{"auto": auto, "dense oracle": ref} {
			if err := m.CheckFeasible(sol.X, 1e-7); err != nil {
				t.Fatalf("%s point infeasible: %v\n%s", name, err, m.WriteLP())
			}
		}
	})
}
