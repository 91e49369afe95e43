package lp

import (
	"context"
	"errors"
	"testing"
	"time"
)

// buildChain returns a moderately sized LP whose solve takes many
// pivots: a chain of coupled ratio rows in the style of the design LPs.
func buildChain(t testing.TB, n int) *Model {
	t.Helper()
	m := NewModel("chain", Minimize)
	vars := make([]int, n)
	for i := range vars {
		vars[i] = m.AddVariable("")
		if err := m.SetObjective(vars[i], float64(1+i%7)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < n; i++ {
		if _, err := m.AddConstraint("", []Term{
			{Var: vars[i], Coeff: 1}, {Var: vars[i+1], Coeff: -0.5},
		}, GE, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.AddConstraint("", []Term{{Var: vars[n-1], Coeff: 1}}, GE, 1); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSolveCtxPreCanceled pins the fast path: a context that is dead on
// arrival aborts the solve before any engine runs, on every method, with
// StatusCanceled and an error matching both ErrCanceled and the context
// sentinel.
func TestSolveCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, method := range []Method{MethodAuto, MethodSparse, methodDense, methodUnbounded} {
		m := buildChain(t, 64)
		sol, err := m.solveAny(Options{Method: method, ctx: ctx})
		if err == nil {
			t.Fatalf("method %v: canceled solve succeeded", method)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("method %v: err = %v, want ErrCanceled", method, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("method %v: err = %v, want to match context.Canceled too", method, err)
		}
		if sol == nil || sol.Status != StatusCanceled {
			t.Errorf("method %v: status = %v, want StatusCanceled", method, sol)
		}
	}
}

// TestSolveCtxMidFlight cancels a running solve and checks it stops at
// an iteration boundary instead of running to optimality, on each
// engine.
func TestSolveCtxMidFlight(t *testing.T) {
	for _, method := range []Method{MethodAuto, methodDense, methodUnbounded} {
		m := buildChain(t, 400)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		sol, err := m.solveAny(Options{Method: method, ctx: ctx})
		if err == nil {
			// The solve legitimately beat the cancel; nothing to assert.
			if sol.Status != StatusOptimal {
				t.Errorf("method %v: nil error with status %v", method, sol.Status)
			}
			continue
		}
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("method %v: err = %v, want ErrCanceled", method, err)
		}
	}
}

// TestSolveCtxCancelCausePropagates pins that the caller's cancellation
// cause survives into the solve error (the service layer relies on this
// to distinguish abandonment from eviction from shutdown).
func TestSolveCtxCancelCausePropagates(t *testing.T) {
	cause := errors.New("test: abandoned")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	m := buildChain(t, 32)
	_, err := m.SolveCtx(ctx, Options{})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want ErrCanceled joined with the cancellation cause", err)
	}
}

// TestIterationLimitSentinel pins the first-class termination error: the
// iteration limit surfaces as ErrIterationLimit with the matching
// status, classified by Cause.
func TestIterationLimitSentinel(t *testing.T) {
	m := buildChain(t, 64)
	sol, err := m.SolveWith(Options{MaxIterations: 1})
	if err == nil {
		t.Fatal("1-iteration budget solved a 64-variable chain")
	}
	if !errors.Is(err, ErrIterationLimit) {
		t.Errorf("err = %v, want ErrIterationLimit", err)
	}
	if sol.Status != StatusIterLimit {
		t.Errorf("status = %v, want StatusIterLimit", sol.Status)
	}
	if got := Cause(err); got != "iteration-limit" {
		t.Errorf("Cause = %q, want iteration-limit", got)
	}
}

// TestCauseClassification covers the remaining termination classes.
func TestCauseClassification(t *testing.T) {
	if got := Cause(nil); got != "" {
		t.Errorf("Cause(nil) = %q, want empty", got)
	}
	cases := []struct {
		err  error
		want string
	}{
		{ErrCanceled, "canceled"},
		{ErrInfeasible, "infeasible"},
		{ErrUnbounded, "unbounded"},
		{ErrBadModel, "bad-model"},
		{errors.New("other"), "error"},
	}
	for _, c := range cases {
		if got := Cause(c.err); got != c.want {
			t.Errorf("Cause(%v) = %q, want %q", c.err, got, c.want)
		}
	}
	// And the real solver errors classify, not just the bare sentinels.
	inf := NewModel("inf", Minimize)
	v := inf.AddVariable("")
	if _, err := inf.AddConstraint("", []Term{{Var: v, Coeff: 1}}, LE, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := inf.Solve(); Cause(err) != "infeasible" {
		t.Errorf("infeasible model classified as %q", Cause(err))
	}
}

// TestCanceledStatusString covers the new Status value.
func TestCanceledStatusString(t *testing.T) {
	if got := StatusCanceled.String(); got != "canceled" {
		t.Errorf("StatusCanceled.String() = %q", got)
	}
}
