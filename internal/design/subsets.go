package design

import (
	"math"
	"sort"

	"privcount/internal/core"
)

// This file reproduces the §IV-D analysis: of the 2⁷ = 128 subsets of
// structural properties, only a handful of distinct optimal behaviours
// exist under the L0 objective.

// SubsetResult records the LP outcome for one property subset.
type SubsetResult struct {
	Props   core.PropertySet
	Closure core.PropertySet
	// L0 is the rescaled L0 score of the optimal mechanism for the subset.
	L0 float64
	// Class is the behaviour group this subset landed in (0-based, ordered
	// by increasing L0). The paper predicts at most 4 classes.
	Class int
}

// ClassifySubsets solves the constrained design problem for all 128
// property subsets at the given n and α and groups them by optimal L0
// score within tol. Subsets sharing an implication closure share a solve.
func ClassifySubsets(n int, alpha, tol float64) ([]SubsetResult, int, error) {
	if tol == 0 {
		tol = 1e-6
	}
	subsets := core.EnumerateSubsets()

	// Solve one LP per distinct closure. Symmetry is free (Theorem 1), so
	// closures differing only in S share a cost; normalise S into every
	// closure to cut the solve count in half and let the reduced LP run.
	type costKey struct{ c core.PropertySet }
	costs := map[costKey]float64{}
	results := make([]SubsetResult, 0, len(subsets))
	for _, ps := range subsets {
		closure := core.Closure(ps)
		key := costKey{c: closure | core.Symmetry}
		cost, ok := costs[key]
		if !ok {
			r, err := Solve(Problem{N: n, Alpha: alpha, Props: key.c, Objective: L0Objective, ReduceSymmetry: true})
			if err != nil {
				return nil, 0, err
			}
			cost = r.Mechanism.L0()
			costs[key] = cost
		}
		results = append(results, SubsetResult{Props: ps, Closure: closure, L0: cost})
	}

	// Group by cost.
	distinct := make([]float64, 0, 4)
	for _, r := range results {
		found := false
		for _, c := range distinct {
			if math.Abs(c-r.L0) <= tol {
				found = true
				break
			}
		}
		if !found {
			distinct = append(distinct, r.L0)
		}
	}
	sort.Float64s(distinct)
	for i := range results {
		for class, c := range distinct {
			if math.Abs(results[i].L0-c) <= tol {
				results[i].Class = class
				break
			}
		}
	}
	return results, len(distinct), nil
}
