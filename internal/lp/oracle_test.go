package lp

import "errors"

// The two reference engines the cross-validation tests compare the
// production route against: the dense tableau (tableau_test.go) and the
// unbounded revised simplex (revised_test.go). Both solve the model
// exactly as given — no presolve, variable boxes as explicit singleton
// rows — so they share no reduction with the engines they check.

// Test-only methods selecting the reference engines. They lie outside
// the production range, which SolveWith refuses, so only solveAny
// reaches them.
const (
	methodDense Method = iota + 100
	methodUnbounded
)

// solveAny is SolveWith extended with the two reference methods.
func (m *Model) solveAny(opts Options) (*Solution, error) {
	if opts.Method != methodDense && opts.Method != methodUnbounded {
		return m.SolveWith(opts)
	}
	if ctxErr(opts.ctx) != nil {
		return &Solution{Status: StatusCanceled}, canceledErr(opts.ctx)
	}
	return m.solveOracle(opts)
}

// solveOracle runs one reference engine on the model exactly as given:
// variable boxes become explicit singleton rows (whose duals are sliced
// back off) and no presolve reduction applies. The unbounded engine
// hands shapes it declines (no rows, an unfactorizable basis) to the
// dense tableau.
func (m *Model) solveOracle(opts Options) (*Solution, error) {
	em, extra := m.expandBounds()
	cf := canonicalize(em)
	opts = opts.withDefaults(cf.m, cf.totalCols, cf.nnz())

	var sol *Solution
	var err error
	if opts.Method == methodDense {
		sol, err = em.solveDense(cf, opts)
	} else {
		sol, err = em.solveSparse(cf, opts)
		if errors.Is(err, errSparseFallback) {
			sol, err = em.solveDense(cf, opts)
		}
	}
	if err != nil {
		return sol, err
	}
	if extra > 0 && len(sol.Duals) >= len(m.cons) {
		sol.Duals = sol.Duals[:len(m.cons)]
	}
	m.finishSolution(sol, opts)
	return sol, nil
}
