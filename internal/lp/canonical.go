package lp

import "math"

// This file canonicalises a Model into equality standard form
//
//	A·x = b,  x ≥ 0,  b ≥ 0
//
// shared by every engine: the bounded revised simplex and the interior
// point method consume the CSC columns directly, and the test-side
// reference engines (the dense tableau and the unbounded revised
// simplex) build on it too. Keeping one canonicalisation guarantees they
// all optimise the identical problem, which is what makes the
// cross-validation tests meaningful.
//
// Canonicalisation per row: structural lower bounds are shifted into the
// right-hand side (so every canonical variable lives in [0, ub] with
// ub = hi − lo, possibly +Inf), negative right-hand sides are
// sign-flipped (swapping ≤ and ≥), rows are scaled so their largest
// coefficient is near one, LE rows get a slack column (+1), GE rows a
// surplus column (−1) plus an artificial (+1), and EQ rows an artificial
// (+1). The design LPs never densify on this path — constraint terms go
// straight from the Model's sparse Term lists into CSC storage.

// canonForm is the canonicalised model. Columns are ordered structural
// variables, then slack/surplus, then artificial.
type canonForm struct {
	m         int // rows
	nStruct   int // structural variables
	artStart  int // first artificial column
	totalCols int

	// CSC storage of the full column set (structural + slack/surplus +
	// artificial), row indices sorted increasing within each column.
	colPtr []int
	rowIdx []int32
	val    []float64

	b []float64 // canonical right-hand sides, all ≥ 0

	// CSR mirror of the same matrix, used by the revised simplex to form
	// tableau rows (αᵀ = ρᵀ·A) touching only the rows where ρ is nonzero.
	rowPtr []int
	colIdx []int32
	rowVal []float64

	// rowScale[i] relates the original row to the canonical one:
	// original = rowScale · canonical (negative when the sign flipped).
	rowScale []float64
	// identCol[i]/identSign[i]: the slack/surplus/artificial column that
	// carries row i's dual (sign −1 for surplus).
	identCol  []int
	identSign []float64
	// initIdCol[i] is the column forming row i's slot of the initial
	// identity basis (slack for LE rows, artificial otherwise).
	initIdCol []int

	// shift[v] is the structural lower bound folded into b (canonical
	// variable = original − shift); ub[j] is the canonical upper bound of
	// column j after the shift (+Inf for slack/surplus/artificial columns
	// and unboxed variables, 0 for fixed variables).
	shift []float64
	ub    []float64
}

// canonicalize builds the shared standard form from a model.
func canonicalize(m *Model) *canonForm {
	cf := &canonForm{
		m:       len(m.cons),
		nStruct: len(m.varNames),
	}

	type prepared struct {
		terms []Term // canonicalised (possibly sign-flipped/scaled) copies
		rhs   float64
		op    Op
		scale float64
	}
	preps := make([]prepared, cf.m)
	nSlack, nArt, nnzStruct := 0, 0, 0
	for i, c := range m.cons {
		terms := make([]Term, len(c.Terms))
		copy(terms, c.Terms)
		rhs := c.RHS
		if m.boxed {
			for _, t := range terms {
				if lo := m.lo[t.Var]; lo != 0 {
					rhs -= t.Coeff * lo
				}
			}
		}
		sign := 1.0
		op := c.Op
		if rhs < 0 {
			for k := range terms {
				terms[k].Coeff = -terms[k].Coeff
			}
			rhs = -rhs
			sign = -1
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		maxAbs := 0.0
		for _, t := range terms {
			if a := math.Abs(t.Coeff); a > maxAbs {
				maxAbs = a
			}
		}
		if a := math.Abs(rhs); a > maxAbs {
			maxAbs = a
		}
		if maxAbs > 0 && (maxAbs > 16 || maxAbs < 1.0/16) {
			inv := 1 / maxAbs
			for k := range terms {
				terms[k].Coeff *= inv
			}
			rhs *= inv
			sign *= maxAbs
		}
		preps[i] = prepared{terms: terms, rhs: rhs, op: op, scale: sign}
		nnzStruct += len(terms)
		if op != EQ {
			nSlack++
		}
		if op != LE {
			nArt++
		}
	}

	cf.artStart = cf.nStruct + nSlack
	cf.totalCols = cf.artStart + nArt
	cf.shift = m.lo
	cf.ub = make([]float64, cf.totalCols)
	for j := range cf.ub {
		cf.ub[j] = math.Inf(1)
	}
	if m.boxed {
		for v := 0; v < cf.nStruct; v++ {
			cf.ub[v] = m.hi[v] - m.lo[v]
		}
	}
	cf.b = make([]float64, cf.m)
	cf.rowScale = make([]float64, cf.m)
	cf.identCol = make([]int, cf.m)
	cf.identSign = make([]float64, cf.m)
	cf.initIdCol = make([]int, cf.m)

	// Count nonzeros per structural column, then fill rows in order so row
	// indices come out sorted within each column.
	counts := make([]int, cf.totalCols)
	for _, p := range preps {
		for _, t := range p.terms {
			counts[t.Var]++
		}
	}
	slackAt := cf.nStruct
	artAt := cf.artStart
	slackOf := make([]int, cf.m)
	artOf := make([]int, cf.m)
	for i, p := range preps {
		slackOf[i], artOf[i] = -1, -1
		if p.op != EQ {
			slackOf[i] = slackAt
			counts[slackAt]++
			slackAt++
		}
		if p.op != LE {
			artOf[i] = artAt
			counts[artAt]++
			artAt++
		}
	}

	cf.colPtr = make([]int, cf.totalCols+1)
	for j := 0; j < cf.totalCols; j++ {
		cf.colPtr[j+1] = cf.colPtr[j] + counts[j]
	}
	nnz := cf.colPtr[cf.totalCols]
	cf.rowIdx = make([]int32, nnz)
	cf.val = make([]float64, nnz)
	next := make([]int, cf.totalCols)
	copy(next, cf.colPtr)
	put := func(row, col int, v float64) {
		p := next[col]
		cf.rowIdx[p] = int32(row)
		cf.val[p] = v
		next[col] = p + 1
	}
	for i, p := range preps {
		for _, t := range p.terms {
			put(i, t.Var, t.Coeff)
		}
		cf.b[i] = p.rhs
		cf.rowScale[i] = p.scale
		switch p.op {
		case LE:
			put(i, slackOf[i], 1)
			cf.identCol[i] = slackOf[i]
			cf.identSign[i] = 1
			cf.initIdCol[i] = slackOf[i]
		case GE:
			put(i, slackOf[i], -1)
			cf.identCol[i] = slackOf[i]
			cf.identSign[i] = -1
			put(i, artOf[i], 1)
			cf.initIdCol[i] = artOf[i]
		case EQ:
			put(i, artOf[i], 1)
			cf.identCol[i] = artOf[i]
			cf.identSign[i] = 1
			cf.initIdCol[i] = artOf[i]
		}
	}

	// CSR mirror: column indices come out sorted per row because columns
	// are scanned in increasing order.
	rowCounts := make([]int, cf.m)
	for _, r := range cf.rowIdx {
		rowCounts[r]++
	}
	cf.rowPtr = make([]int, cf.m+1)
	for i := 0; i < cf.m; i++ {
		cf.rowPtr[i+1] = cf.rowPtr[i] + rowCounts[i]
	}
	cf.colIdx = make([]int32, nnz)
	cf.rowVal = make([]float64, nnz)
	nextRow := make([]int, cf.m)
	copy(nextRow, cf.rowPtr)
	for j := 0; j < cf.totalCols; j++ {
		for p := cf.colPtr[j]; p < cf.colPtr[j+1]; p++ {
			i := cf.rowIdx[p]
			q := nextRow[i]
			cf.colIdx[q] = int32(j)
			cf.rowVal[q] = cf.val[p]
			nextRow[i] = q + 1
		}
	}
	return cf
}

// isArtificial reports whether column j is an artificial column.
func (cf *canonForm) isArtificial(j int) bool { return j >= cf.artStart }

// column returns the CSC slice of column j (row indices, values).
func (cf *canonForm) column(j int) ([]int32, []float64) {
	lo, hi := cf.colPtr[j], cf.colPtr[j+1]
	return cf.rowIdx[lo:hi], cf.val[lo:hi]
}

// nnz returns the number of stored nonzeros, including slack/surplus and
// artificial columns.
func (cf *canonForm) nnz() int { return len(cf.val) }

// NumNonzeros returns the number of nonzero coefficients across all
// constraints (structural terms only; slack and artificial columns the
// solver adds during canonicalisation are not counted).
func (m *Model) NumNonzeros() int {
	n := 0
	for _, c := range m.cons {
		n += len(c.Terms)
	}
	return n
}
