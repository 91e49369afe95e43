package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"privcount/client"
	"privcount/internal/core"
	"privcount/internal/design"
	"privcount/internal/service"
)

// inputs is everything a workload sends, generated from the seed alone.
type inputs struct {
	// specs are the mechanisms the workload admits: built during setup
	// (query-json, query-binary, churn) or measured (build-cold).
	specs []service.Spec
	// reqs are op batches: one JSON query each (query-json, churn, the
	// build-cold verification queries) or one binary stream each
	// (query-binary).
	reqs [][]client.Op
	// arrivals are the open-loop due times, offsets from the start of
	// the measured phase (churn only).
	arrivals []time.Duration
	// n maps every spec ID to its group size, for range checks.
	n map[string]int
}

func newInputs(specs []service.Spec) *inputs {
	in := &inputs{specs: specs, n: make(map[string]int, len(specs))}
	for _, s := range specs {
		in.n[s.ID()] = s.N
	}
	return in
}

func mustSpec(token string) service.Spec {
	s, err := service.ParseSpec(token)
	if err != nil {
		panic(err)
	}
	return s.Canonical()
}

// jitter returns base moved by up to ±width, rounded to four decimals so
// the spec token stays short.
func jitter(r *rand.Rand, base, width float64) float64 {
	return math.Round((base+(2*r.Float64()-1)*width)*1e4) / 1e4
}

// lpAlpha pins the privacy level of every LP-backed spec. Cold LP solve
// time is not smooth in α: at n=64 the pivot count moves between 1772
// and 3569 within ±0.0004 of 0.9, and choose:n=256 leaves the band path
// for a 68s full solve at α=0.9016. A seed-jittered α would make the
// LP-backed build times vary from seed to seed by more than any bound.
const lpAlpha = 0.9

// hotSet is the eight prebuilt mechanisms of the query workloads: every
// closed-form kind plus one LP-backed and one closed-form choose, n 8–256.
func hotSet(r *rand.Rand) []service.Spec {
	a := jitter(r, 0.9, 0.002)
	b := jitter(r, 0.5, 0.002)
	return []service.Spec{
		mustSpec(fmt.Sprintf("gm:n=8:a=%g", a)),
		mustSpec(fmt.Sprintf("em:n=16:a=%g", a)),
		mustSpec("um:n=32"),
		mustSpec(fmt.Sprintf("choose:n=48:a=%g:CM", lpAlpha)),
		mustSpec(fmt.Sprintf("gm:n=64:a=%g", b)),
		mustSpec(fmt.Sprintf("em:n=128:a=%g", a)),
		mustSpec(fmt.Sprintf("choose:n=192:a=%g:RH+RM", b)),
		mustSpec(fmt.Sprintf("gm:n=256:a=%g", a)),
	}
}

func seedPtr(r *rand.Rand) *uint64 {
	s := r.Uint64()
	return &s
}

func counts(r *rand.Rand, n, k int) []int {
	c := make([]int, k)
	for i := range c {
		c[i] = r.IntN(n + 1)
	}
	return c
}

// mixedOp is one sample, seeded batch (≤8 counts) or estimate (≤4
// outputs) against spec.
func mixedOp(r *rand.Rand, spec service.Spec) client.Op {
	id, n := spec.ID(), spec.N
	switch r.IntN(3) {
	case 0:
		return client.Op{Op: client.OpSample, ID: id, Count: r.IntN(n + 1)}
	case 1:
		return client.Op{Op: client.OpBatch, ID: id, Counts: counts(r, n, 1+r.IntN(8)), Seed: seedPtr(r)}
	default:
		return client.Op{Op: client.OpEstimate, ID: id, Outputs: counts(r, n, 1+r.IntN(4))}
	}
}

func genQueryJSON(seed uint64) *inputs {
	r := rand.New(rand.NewPCG(seed, 1))
	in := newInputs(hotSet(r))
	in.reqs = make([][]client.Op, 4096)
	for i := range in.reqs {
		ops := make([]client.Op, 4+r.IntN(5))
		for k := range ops {
			ops[k] = mixedOp(r, in.specs[r.IntN(len(in.specs))])
		}
		in.reqs[i] = ops
	}
	return in
}

// Stream shape of query-binary.
const (
	streamOps    = 256
	streamCounts = 64
)

func genQueryBinary(seed uint64) *inputs {
	r := rand.New(rand.NewPCG(seed, 2))
	in := newInputs(hotSet(r))
	in.reqs = make([][]client.Op, 64)
	for i := range in.reqs {
		ops := make([]client.Op, streamOps)
		for k := range ops {
			s := in.specs[r.IntN(len(in.specs))]
			ops[k] = client.Op{Op: client.OpBatch, ID: s.ID(), Counts: counts(r, s.N, streamCounts)}
		}
		in.reqs[i] = ops
	}
	return in
}

// Churn shape: the working set is churnSpecs mechanisms, about four
// times the server's cache capacity, visited with Zipf popularity by a
// Poisson stream at churnRate requests per second. The rate keeps the two
// connections well short of saturation: at 400 req/s requests queued
// behind reloads, and the median latency moved by up to 70% between runs
// with the host's speed.
const (
	churnSpecs    = 64
	churnCapacity = 16
	churnShards   = 4
	churnRate     = 250.0
	churnZipfS    = 1.1
)

func genChurn(seed uint64, horizon time.Duration) *inputs {
	r := rand.New(rand.NewPCG(seed, 3))
	// Two LP-backed tenants (the WM route) and 62 closed-form ones on a
	// fixed grid of sizes and kinds, so the seeding cost is the same for
	// every seed; the seed sets α and the popularity order.
	specs := []service.Spec{
		mustSpec(fmt.Sprintf("choose:n=40:a=%g:CM", lpAlpha)),
		mustSpec(fmt.Sprintf("choose:n=48:a=%g:CM", lpAlpha)),
	}
	kinds := []string{"gm", "em", "um"}
	for i := 0; len(specs) < churnSpecs; i++ {
		n := 64 + i*192/(churnSpecs-3)
		if k := kinds[i%len(kinds)]; k == "um" {
			specs = append(specs, mustSpec(fmt.Sprintf("um:n=%d", n)))
		} else {
			specs = append(specs, mustSpec(fmt.Sprintf("%s:n=%d:a=%g", k, n, jitter(r, 0.8, 0.15))))
		}
	}
	// Popularity rank is one fixed permutation of the grid, so every seed
	// draws the same mix of sizes and kinds; the seed sets α, the counts,
	// the arrival times and which tenant each request names.
	fixed := rand.New(rand.NewPCG(0, 3))
	fixed.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	in := newInputs(specs)
	z := rand.NewZipf(r, churnZipfS, 1, uint64(len(specs)-1))
	var t time.Duration
	for t < horizon {
		t += time.Duration(r.ExpFloat64() / churnRate * float64(time.Second))
		s := specs[z.Uint64()]
		in.arrivals = append(in.arrivals, t)
		in.reqs = append(in.reqs, []client.Op{
			{Op: client.OpSample, ID: s.ID(), Count: r.IntN(s.N + 1)},
			{Op: client.OpEstimate, ID: s.ID(), Outputs: counts(r, s.N, 1+r.IntN(4))},
		})
	}
	return in
}

// churnWarmup is the unmeasured open-loop lead-in that brings each
// instance's cache to its steady mix before its segment is measured.
const churnWarmup = time.Second

// buildCold is the analyst's admission ledger: four LP-backed specs
// whose time goes to the design solve, then four closed-form specs
// whose time goes to the debiasing estimator.
func genBuildCold(seed uint64) *inputs {
	r := rand.New(rand.NewPCG(seed, 4))
	a := jitter(r, 0.9, 0.002)
	in := newInputs([]service.Spec{
		mustSpec(fmt.Sprintf("lp:n=64:a=%g:RH+RM+CH+CM+WH", lpAlpha)),
		mustSpec(fmt.Sprintf("lp:n=96:a=%g:RH+RM+CH+CM+WH", lpAlpha)),
		mustSpec(fmt.Sprintf("lp-minimax:n=96:a=%g:none", lpAlpha)),
		mustSpec(fmt.Sprintf("choose:n=256:a=%g:CM", lpAlpha)),
		mustSpec(fmt.Sprintf("gm:n=1024:a=%g", a)),
		mustSpec(fmt.Sprintf("gm:n=512:a=%g", a)),
		mustSpec(fmt.Sprintf("em:n=512:a=%g", a)),
		mustSpec("um:n=512"),
	})
	// One verification query per built mechanism: a seeded batch at the
	// middle count (chi-square input) and an estimate.
	for _, s := range in.specs {
		c := make([]int, verifyDraws)
		for i := range c {
			c[i] = s.N / 2
		}
		in.reqs = append(in.reqs, []client.Op{
			{Op: client.OpBatch, ID: s.ID(), Counts: c, Seed: seedPtr(r)},
			{Op: client.OpEstimate, ID: s.ID(), Outputs: counts(r, s.N, 4)},
		})
	}
	return in
}

// verifyDraws is the size of build-cold's seeded verification batch.
const verifyDraws = 2048

// lpBacked reports whether spec's build runs the LP design engine.
func lpBacked(s service.Spec) bool {
	switch s.Kind {
	case service.KindLP, service.KindLPMinimax:
		return true
	case service.KindChoose:
		return design.IsLPBacked(s.N, s.Alpha, s.Props)
	}
	return false
}

// closedForm builds spec in process when it has no LP behind it; ok is
// false for LP-backed specs.
func closedForm(s service.Spec) (m *core.Mechanism, ok bool, err error) {
	switch s.Kind {
	case service.KindGeometric:
		m, err = core.Geometric(s.N, s.Alpha)
	case service.KindExplicitFair:
		m, err = core.ExplicitFair(s.N, s.Alpha)
	case service.KindUniform:
		m, err = core.Uniform(s.N)
	case service.KindChoose:
		if lpBacked(s) {
			return nil, false, nil
		}
		var ch *design.Choice
		if ch, err = design.Choose(s.N, s.Alpha, s.Props); err == nil {
			m = ch.Mechanism
		}
	default:
		return nil, false, nil
	}
	return m, true, err
}
