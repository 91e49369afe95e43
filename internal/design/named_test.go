package design

import (
	"math"
	"strings"
	"testing"

	"privcount/internal/core"
)

func TestChooseFairness(t *testing.T) {
	c, err := Choose(5, 0.9, core.Fairness)
	if err != nil {
		t.Fatal(err)
	}
	if c.Mechanism.Name() != "EM" {
		t.Errorf("chose %s, want EM", c.Mechanism.Name())
	}
	if !strings.Contains(c.Rule, "fairness") {
		t.Errorf("rule %q", c.Rule)
	}
}

func TestChooseRowOnlyGetsGM(t *testing.T) {
	for _, props := range []core.PropertySet{0, core.Symmetry, core.RowHonesty, core.RowMonotone | core.Symmetry} {
		c, err := Choose(5, 0.9, props)
		if err != nil {
			t.Fatal(err)
		}
		if c.Mechanism.Name() != "GM" {
			t.Errorf("props %s: chose %s, want GM", core.PropertySetString(props), c.Mechanism.Name())
		}
	}
}

func TestChooseColumnPropertyHighAlpha(t *testing.T) {
	c, err := Choose(5, 0.9, core.ColumnMonotone)
	if err != nil {
		t.Fatal(err)
	}
	if c.Mechanism.Name() != "WM" {
		t.Errorf("chose %s, want WM", c.Mechanism.Name())
	}
	if v := c.Mechanism.Violation(core.ColumnMonotone, 1e-7); v != "" {
		t.Errorf("choice violates request: %s", v)
	}
}

func TestChooseColumnPropertyLowAlpha(t *testing.T) {
	// Lemma 3: GM is column monotone when alpha <= 1/2.
	c, err := Choose(5, 0.45, core.ColumnMonotone)
	if err != nil {
		t.Fatal(err)
	}
	if c.Mechanism.Name() != "GM" {
		t.Errorf("chose %s, want GM (Lemma 3 regime)", c.Mechanism.Name())
	}
	if v := c.Mechanism.Violation(core.ColumnMonotone, 1e-9); v != "" {
		t.Errorf("GM violates CM at alpha=0.45: %s", v)
	}
}

func TestChooseWeakHonestyBranches(t *testing.T) {
	// alpha = 2/3 → threshold n = 4.
	const alpha = 2.0 / 3.0
	big, err := Choose(6, alpha, core.WeakHonesty)
	if err != nil {
		t.Fatal(err)
	}
	if big.Mechanism.Name() != "GM" {
		t.Errorf("n above threshold chose %s, want GM", big.Mechanism.Name())
	}
	small, err := Choose(2, alpha, core.WeakHonesty)
	if err != nil {
		t.Fatal(err)
	}
	if small.Mechanism.Name() != "WH-LP" {
		t.Errorf("n below threshold chose %s, want WH-LP", small.Mechanism.Name())
	}
	if v := small.Mechanism.Violation(core.WeakHonesty, 1e-7); v != "" {
		t.Errorf("WH-LP violates WH: %s", v)
	}
}

func TestChooseAlwaysSatisfiesRequest(t *testing.T) {
	for _, props := range core.EnumerateSubsets()[:32] {
		for _, alpha := range []float64{0.45, 0.9} {
			c, err := Choose(4, alpha, props)
			if err != nil {
				t.Fatalf("props %s: %v", core.PropertySetString(props), err)
			}
			if v := c.Mechanism.Violation(props&^core.Symmetry, 1e-7); v != "" {
				t.Errorf("props %s alpha %v: %s violates %s",
					core.PropertySetString(props), alpha, c.Mechanism.Name(), v)
			}
		}
	}
}

// TestWMCacheConsistency pins that a repeated WM solve, which starts
// from the first solve's cached warm basis, returns the identical
// mechanism, and that a cold re-solve after ClearCache matches it.
func TestWMCacheConsistency(t *testing.T) {
	ClearCache()
	a, err := WM(5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := WM(5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := a.Matrix().MaxAbsDiff(b.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("warm-started WM differs by %v", d)
	}
	ClearCache()
	c, err := WM(5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := a.Matrix().MaxAbsDiff(c.Matrix()); d > 1e-12 {
		t.Errorf("re-solved WM differs by %v", d)
	}
}

func TestClassifySubsetsAtMostFour(t *testing.T) {
	for _, alpha := range []float64{0.4, 0.9} {
		results, classes, err := ClassifySubsets(5, alpha, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 128 {
			t.Fatalf("classified %d subsets", len(results))
		}
		if classes > 4 {
			t.Errorf("alpha=%v: %d classes, paper predicts <= 4", alpha, classes)
		}
		// Class 0 (cheapest) must cost GM; the priciest class costs EM.
		var minC, maxC = math.Inf(1), math.Inf(-1)
		for _, r := range results {
			minC = math.Min(minC, r.L0)
			maxC = math.Max(maxC, r.L0)
		}
		if math.Abs(minC-core.GeometricL0(alpha)) > 1e-6 {
			t.Errorf("alpha=%v: cheapest class %v, GM %v", alpha, minC, core.GeometricL0(alpha))
		}
		if math.Abs(maxC-core.ExplicitFairL0(5, alpha)) > 1e-6 {
			t.Errorf("alpha=%v: priciest class %v, EM %v", alpha, maxC, core.ExplicitFairL0(5, alpha))
		}
	}
}

func TestClassifySubsetsFairnessAlwaysTopClass(t *testing.T) {
	results, _, err := ClassifySubsets(4, 0.9, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	em := core.ExplicitFairL0(4, 0.9)
	for _, r := range results {
		if r.Props&core.Fairness != 0 && math.Abs(r.L0-em) > 1e-6 {
			t.Errorf("subset %s includes F but costs %v (EM %v)",
				core.PropertySetString(r.Props), r.L0, em)
		}
	}
}

func TestClassifySubsetsLowAlphaCollapsesToTwo(t *testing.T) {
	// §IV-D: for alpha <= 1/2 only GM and EM remain.
	_, classes, err := ClassifySubsets(5, 0.4, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if classes != 2 {
		t.Errorf("alpha=0.4: %d classes, want exactly 2 (GM and EM)", classes)
	}
}

func TestUnconstrainedNaming(t *testing.T) {
	m, err := Unconstrained(3, 0.62, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Name(), "L1") {
		t.Errorf("name %q should mention the objective", m.Name())
	}
}

func TestChooseReportsGuaranteedProps(t *testing.T) {
	cases := []struct {
		n     int
		alpha float64
		props core.PropertySet
	}{
		{8, 0.9, core.Fairness},
		{8, 0.4, core.ColumnMonotone},
		{8, 0.9, core.ColumnHonesty},
		{4, 0.9, core.WeakHonesty},
		{30, 0.9, core.WeakHonesty},
		{8, 0.9, 0},
		{8, 0.9, core.RowMonotone | core.Symmetry},
	}
	for _, c := range cases {
		ch, err := Choose(c.n, c.alpha, c.props)
		if err != nil {
			t.Fatalf("Choose(%d, %g, %s): %v", c.n, c.alpha, core.PropertySetString(c.props), err)
		}
		// The reported guarantee must cover the request (minus free S).
		want := core.Closure(c.props &^ core.Symmetry)
		if ch.Props&want != want {
			t.Errorf("Choose(%d, %g, %s): guaranteed %s does not cover request",
				c.n, c.alpha, core.PropertySetString(c.props), core.PropertySetString(ch.Props))
		}
		// And the mechanism must actually satisfy every reported property.
		if !ch.Mechanism.Check(ch.Props, 1e-7) {
			t.Errorf("Choose(%d, %g, %s) => %s claims %s but fails the check",
				c.n, c.alpha, core.PropertySetString(c.props), ch.Mechanism.Name(),
				core.PropertySetString(ch.Props))
		}
	}
}
