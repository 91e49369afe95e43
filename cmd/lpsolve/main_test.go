package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"privcount/internal/lp"
)

func TestReadSourceFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.lp")
	const content = "min: x; c: x >= 1;"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != content {
		t.Fatalf("read %q", got)
	}
}

// TestStatsReportPresolveAndRoute pins the -stats surface: presolve
// reductions (rows in -> out, folded bounds) and the solver route taken
// must be reported, since operators use them to see whether a model is
// being served by the bounded engine or falling back.
func TestStatsReportPresolveAndRoute(t *testing.T) {
	model, err := lp.ParseLP("min: 2x + 3y; c1: x + y >= 4; c2: x >= 1; c3: y <= 10;")
	if err != nil {
		t.Fatal(err)
	}
	sol, err := model.SolveWith(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Route == "" {
		t.Error("Solution.Route is empty; -stats would print nothing useful")
	}
	if sol.Presolve.RowsIn != 3 || sol.Presolve.BoundsFolded != 2 {
		t.Errorf("presolve stats %+v, want RowsIn=3 BoundsFolded=2 (the two singleton rows)", sol.Presolve)
	}
	if sol.Presolve.RowsOut >= sol.Presolve.RowsIn {
		t.Errorf("presolve did not reduce: %d -> %d", sol.Presolve.RowsIn, sol.Presolve.RowsOut)
	}
}

// TestParseMethod pins the -method vocabulary: each name must map onto
// its solver back end, the empty string and "auto" onto the default
// route, and anything else — including the retired test-only oracles —
// must be rejected before a solve starts.
func TestParseMethod(t *testing.T) {
	want := map[string]lp.Method{
		"":       lp.MethodAuto,
		"auto":   lp.MethodAuto,
		"sparse": lp.MethodSparse,
		"ipm":    lp.MethodIPM,
	}
	for name, m := range want {
		got, err := parseMethod(name)
		if err != nil || got != m {
			t.Errorf("parseMethod(%q) = %v, %v, want %v", name, got, err, m)
		}
	}
	for _, name := range []string{"simplex2", "dense", "unbounded"} {
		if _, err := parseMethod(name); err == nil {
			t.Errorf("parseMethod accepted the unknown back end %q", name)
		}
	}
}

// TestMethodIPMSolvesAndReportsGap drives the forced interior point
// route the way `lpsolve -method ipm -stats` does and checks the stats
// the CLI prints from it: the route tag, a factorization count, and a
// duality gap within the engine's advertised tolerance.
func TestMethodIPMSolvesAndReportsGap(t *testing.T) {
	model, err := lp.ParseLP("min: x + 2y; c1: x + y >= 4; c2: x + 3y >= 6; x <= 10; y <= 10;")
	if err != nil {
		t.Fatal(err)
	}
	sol, err := model.SolveWith(lp.Options{Method: lp.MethodIPM})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Route != "ipm" {
		t.Fatalf("route = %q, want ipm", sol.Route)
	}
	if diff := sol.Objective - 5; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("objective = %v, want 5 within 1e-6", sol.Objective)
	}
	if sol.Refactorizations < 1 {
		t.Errorf("factorizations = %d, want >= 1 on the ipm route", sol.Refactorizations)
	}
	if sol.Gap < 0 || sol.Gap > 1e-6 {
		t.Errorf("duality gap = %v, want in [0, 1e-6]", sol.Gap)
	}
}

func TestReadSourceMissingFile(t *testing.T) {
	if _, err := readSource("/does/not/exist.lp"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestReadSourceStdin(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdin
	os.Stdin = r
	defer func() { os.Stdin = old }()
	go func() {
		w.WriteString("max: y; c: y <= 3;")
		w.Close()
	}()
	got, err := readSource("-")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "max: y") {
		t.Fatalf("stdin read %q", got)
	}
}
