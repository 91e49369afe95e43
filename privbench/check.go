package main

import (
	"context"
	"fmt"
	"math"
	"slices"

	"privcount/client"
	"privcount/internal/core"
	"privcount/internal/service"
)

// estRecord is one estimate op and the result the server returned.
type estRecord struct {
	op  client.Op
	res client.OpResult
}

// maxEstimateChecks bounds how many estimate results are kept for
// comparison against the in-process computation.
const maxEstimateChecks = 256

func (b *bench) recordEstimate(op *client.Op, r *client.OpResult) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.estimates) < maxEstimateChecks {
		b.estimates = append(b.estimates, estRecord{op: *op, res: *r})
	}
}

// fail records a correctness failure; any failure makes the run fail.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.wrong) < 20 {
		b.wrong = append(b.wrong, fmt.Sprintf(format, args...))
	}
	b.wrongCount++
}

// reference builds spec's reference in process: closed forms from core
// (or design.Choose) directly, LP-backed specs from the server's
// exported matrix. withDebias=false takes the debias table from the
// artifact instead of recomputing it (build-cold's n=1024 solve costs
// seconds; the traced run recomputes it in the ledger).
func reference(s service.Spec, art []byte, withDebias bool) (*tables, error) {
	a, err := service.DecodeArtifact(art)
	if err != nil {
		return nil, err
	}
	m, ok, err := closedForm(s)
	if err != nil {
		return nil, err
	}
	if !ok {
		if m, err = core.FromProbsRowMajor(a.Name, s.N, a.Alpha, a.Probs); err != nil {
			return nil, err
		}
	}
	r := &tables{mech: m, mle: m.MLETable(), debias: a.Debias}
	if withDebias {
		r.debias, _ = m.UnbiasedEstimator()
	}
	return r, nil
}

// checkEstimates compares every recorded estimate result with the
// in-process MLE lookup and debiased sum.
func (b *bench) checkEstimates(refs map[string]*tables) {
	for _, e := range b.estimates {
		r := refs[e.op.ID]
		if r == nil {
			b.fail("no reference for %s", e.op.ID)
			continue
		}
		var sum float64
		mle := make([]int, len(e.op.Outputs))
		for k, o := range e.op.Outputs {
			mle[k] = r.mle[o]
			if r.debias != nil {
				sum += r.debias[o]
			} else {
				sum += float64(mle[k])
			}
		}
		if !slices.Equal(mle, e.res.MLE) {
			b.fail("estimate %s %v: MLE %v, in-process %v", e.op.ID, e.op.Outputs, e.res.MLE, mle)
		}
		if *e.res.Unbiased != (r.debias != nil) || !near(*e.res.Sum, sum, 1e-9) {
			b.fail("estimate %s %v: sum %v unbiased %v, in-process %v unbiased %v",
				e.op.ID, e.op.Outputs, *e.res.Sum, *e.res.Unbiased, sum, r.debias != nil)
		}
	}
}

func near(a, b, rel float64) bool {
	return math.Abs(a-b) <= rel*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// seededBatch draws k seeded releases at count j through a JSON query.
func seededBatch(ctx context.Context, c *client.Client, s service.Spec, seed uint64, j, k int) ([]int, error) {
	cs := make([]int, k)
	for i := range cs {
		cs[i] = j
	}
	return c.SampleBatchSeeded(ctx, s, seed, cs)
}

// chiSquareZ is the standard normal quantile of the test's significance
// level, 1e-6, so a correct sampler fails once in a million seeds.
const chiSquareZ = 4.7534

// chiSquare tests draws against col, merging adjacent outputs until
// every bin expects at least five draws, and records a failure when the
// statistic exceeds the Wilson–Hilferty critical value.
func (b *bench) chiSquare(id string, j int, col []float64, draws []int) {
	obs := make([]float64, len(col))
	for _, d := range draws {
		obs[d]++
	}
	total := float64(len(draws))
	var stat, e, o float64
	bins := 0
	flush := func() {
		stat += (o - e) * (o - e) / e
		bins++
		e, o = 0, 0
	}
	for i := range col {
		e += col[i] * total
		o += obs[i]
		if e >= 5 {
			flush()
		}
	}
	if e > 0 || o > 0 {
		if bins == 0 || e >= 1e-12 {
			flush()
		} else {
			stat += o // leftover outputs with (numerically) zero mass
		}
	}
	df := float64(bins - 1)
	if df < 1 {
		return
	}
	h := 2 / (9 * df)
	crit := df * math.Pow(1-h+chiSquareZ*math.Sqrt(h), 3)
	if stat > crit {
		b.fail("chi-square %s column %d: %.1f > %.1f (df %d)", id, j, stat, crit, bins-1)
	}
}

// chiDraws is the seeded sample size of each chi-square test.
const chiDraws = 8000

// checkServing runs the seeded-draw checks on specs: a repeated seeded
// batch must return identical outputs over JSON and over the binary
// stream, and the draws must pass the chi-square test at count n/2.
// Each stream gets a connection of its own (see streamBatch).
func (b *bench) checkServing(ctx context.Context, c *client.Client, base string, refs map[string]*tables, specs []service.Spec) error {
	for i, s := range specs {
		seed := b.seed*1000 + uint64(i)
		j := s.N / 2
		first, err := seededBatch(ctx, c, s, seed, j, chiDraws)
		if err != nil {
			return fmt.Errorf("seeded batch %s: %w", s.ID(), err)
		}
		again, err := seededBatch(ctx, c, s, seed, j, chiDraws)
		if err != nil {
			return fmt.Errorf("seeded batch %s: %w", s.ID(), err)
		}
		if !slices.Equal(first, again) {
			b.fail("seeded batch %s seed %d: repeat differs", s.ID(), seed)
		}
		if got, err := streamBatch(ctx, newClient(base, 1), s, seed, first); err != nil {
			return err
		} else if !slices.Equal(first, got) {
			b.fail("seeded batch %s seed %d: binary stream differs from JSON", s.ID(), seed)
		}
		b.chiSquare(s.ID(), j, refs[s.ID()].mech.Column(j), first)
	}
	return nil
}

// streamBatch repeats a seeded batch of len(like) draws at count n/2
// over the binary transport. The server may close the stream's
// connection once it has answered (a handler panic after the response),
// so c should not be reused.
func streamBatch(ctx context.Context, c *client.Client, s service.Spec, seed uint64, like []int) ([]int, error) {
	cs := make([]int, len(like))
	for i := range cs {
		cs[i] = s.N / 2
	}
	st, err := c.QueryStream(ctx)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	op := client.Op{Op: client.OpBatch, ID: s.ID(), Counts: cs, Seed: &seed}
	if err := st.Send(&op); err != nil {
		return nil, fmt.Errorf("stream send %s: %w", s.ID(), err)
	}
	if err := st.CloseSend(); err != nil {
		return nil, fmt.Errorf("stream close %s: %w", s.ID(), err)
	}
	r, err := st.Recv()
	if err != nil {
		return nil, fmt.Errorf("stream recv %s: %w", s.ID(), err)
	}
	return r.Outputs, r.Err()
}

// probeStreams is how many streams keepAliveProbe sends.
const probeStreams = 256

// keepAliveProbe sends probeStreams short binary streams one after
// another on one keep-alive connection, the SDK's default transport use,
// and returns how many of them broke. query-binary gives every stream its
// own connection (see newStreamClient); this probe measures what the
// stream handler's early return costs a client that reuses connections.
// Its streams are a diagnostic and not counted among the workload's ops.
func keepAliveProbe(ctx context.Context, base string, s service.Spec) (breaks int) {
	c := newClient(base, 1)
	like := make([]int, 64)
	for range probeStreams {
		if out, err := streamBatch(ctx, c, s, 1, like); err != nil || len(out) != len(like) {
			breaks++
		}
	}
	return breaks
}

// checkArtifact verifies that an exported artifact decodes, instantiates
// and satisfies α-DP; when lref is non-nil (traced runs) its objective
// must match the in-process design solve.
func (b *bench) checkArtifact(s service.Spec, art []byte, lref *tables) {
	a, err := service.DecodeArtifact(art)
	if err != nil {
		b.fail("artifact %s: %v", s.ID(), err)
		return
	}
	m, _, err := a.Instantiate()
	if err != nil {
		b.fail("artifact %s: instantiate: %v", s.ID(), err)
		return
	}
	if s.Kind != service.KindUniform && !m.SatisfiesDP(s.Alpha, 1e-9) {
		b.fail("artifact %s: not %g-DP: %s", s.ID(), s.Alpha, m.DPViolation(s.Alpha, 1e-9))
	}
	if lref == nil || !lpBacked(s) {
		return
	}
	got, want := objective(s, m), objective(s, lref.mech)
	if !near(got, want, 1e-6) {
		b.fail("artifact %s: LP cost %.9g, in-process design solve %.9g", s.ID(), got, want)
	}
}

// objective is the LP cost spec's design minimised: the summed O_p loss,
// or its worst column for minimax.
func objective(s service.Spec, m *core.Mechanism) float64 {
	var v float64
	var err error
	if s.Kind == service.KindLPMinimax {
		v, err = m.MaxLoss(s.ObjectiveP, nil)
	} else {
		v, err = m.Loss(s.ObjectiveP, nil)
	}
	if err != nil {
		return math.NaN()
	}
	return v
}
