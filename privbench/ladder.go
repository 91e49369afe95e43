package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"privcount/client"
	"privcount/internal/core"
	"privcount/internal/design"
	"privcount/internal/httpapi"
	"privcount/internal/rng"
	"privcount/internal/service"
)

// The layer ladder replays the workload's own requests, one at a time,
// through each boundary in turn: core.Sampler, the service, the
// in-process httpapi mux, and privcountd over loopback. A layer's self
// time is its rung minus the rung below.

// ladderReqs returns the requests the ladder replays: a prefix of the
// workload's generated requests, cycled to at least min entries.
func (b *bench) ladderReqs() [][]client.Op {
	want := 600
	if b.name == "query-binary" {
		want = 48
	}
	reqs := b.in.reqs
	if len(reqs) > want {
		return reqs[:want]
	}
	var out [][]client.Op
	for len(out) < want {
		out = append(out, reqs...)
	}
	return out
}

// tables is one mechanism with its estimation tables and, in the
// ladder, its sampler.
type tables struct {
	mech    *core.Mechanism
	sampler *core.Sampler
	mle     []int
	debias  []float64 // nil when the mechanism has no unbiased estimator
}

func (b *bench) ladder(ctx context.Context, srv *server, arts map[string][]byte) error {
	specs := make(map[string]service.Spec, len(b.in.specs))
	tabs := make(map[string]*tables, len(b.in.specs))
	for _, s := range b.in.specs {
		specs[s.ID()] = s
		a, err := service.DecodeArtifact(arts[s.ID()])
		if err != nil {
			return fmt.Errorf("ladder: %s: %w", s.ID(), err)
		}
		_, smp, err := a.Instantiate()
		if err != nil {
			return fmt.Errorf("ladder: %s: %w", s.ID(), err)
		}
		tabs[s.ID()] = &tables{sampler: smp, mle: a.MLE, debias: a.Debias}
	}

	// The in-process service mirrors the server's configuration. With a
	// store (churn), its cache starts cold and misses reload artifacts
	// exactly as privcountd's do; otherwise the artifacts are imported.
	cfg := service.Config{Capacity: b.capacity, Shards: b.shards, Seed: b.seed}
	if b.storeBacked {
		st, err := service.NewFSStore(filepath.Join(b.work, "ladder-store"))
		if err != nil {
			return err
		}
		for id, data := range arts {
			if err := st.Put(id, data); err != nil {
				return err
			}
		}
		cfg.Store = st
	}
	// Each rung gets its own service, so every rung replays the requests
	// against the same cache state (on churn, the same misses).
	newSvc := func() (*service.Service, error) {
		svc := service.New(cfg)
		if b.storeBacked {
			return svc, nil
		}
		for _, s := range b.in.specs {
			if _, err := svc.ImportArtifact(s, arts[s.ID()]); err != nil {
				svc.Close()
				return nil, fmt.Errorf("ladder: import %s: %w", s.ID(), err)
			}
		}
		return svc, nil
	}
	var svcs [3]*service.Service // service rung, JSON mux rung, stream mux rung
	for i := range svcs {
		svc, err := newSvc()
		if err != nil {
			return err
		}
		defer svc.Close()
		svcs[i] = svc
	}
	svc := svcs[0]
	muxJSON, muxStream := httpapi.NewMux(svcs[1]), httpapi.NewMux(svcs[2])

	reqs := b.ladderReqs()
	jsonBodies := make([][]byte, len(reqs))
	binBodies := make([][]byte, len(reqs))
	nops := 0
	for i, ops := range reqs {
		nops += len(ops)
		var err error
		if jsonBodies[i], err = json.Marshal(client.QueryRequest{Ops: ops}); err != nil {
			return err
		}
		var buf bytes.Buffer
		fw := client.NewFrameWriter(&buf)
		for k := range ops {
			if err := fw.WriteOp(&ops[k]); err != nil {
				return err
			}
		}
		if err := fw.Close(); err != nil {
			return err
		}
		binBodies[i] = buf.Bytes()
	}

	// Rung 1: core. Draws come from an rng.Pool source, as in the
	// service; seeded batches from a fresh seeded generator.
	maxCounts := 1
	for _, ops := range reqs {
		for k := range ops {
			maxCounts = max(maxCounts, len(ops[k].Counts))
		}
	}
	dst := make([]int, maxCounts)
	src := rng.NewPool(b.seed).Get()
	var draws, estOps int
	var sampleCore time.Duration
	timed := false
	coreRung := func(ops []client.Op) {
		for k := range ops {
			op := &ops[k]
			tb := tabs[op.ID]
			start := time.Now()
			switch op.Op {
			case client.OpSample:
				tb.sampler.SampleBatchInto(src, op.Count, dst[:1])
			case client.OpBatch:
				d := dst[:len(op.Counts)]
				if op.Seed != nil {
					tb.sampler.SampleManyInto(rng.New(*op.Seed), op.Counts, d)
				} else {
					tb.sampler.SampleManyInto(src, op.Counts, d)
				}
			case client.OpEstimate:
				var sum float64
				for _, o := range op.Outputs {
					if tb.debias != nil {
						sum += tb.debias[o]
					} else {
						sum += float64(tb.mle[o])
					}
				}
				sink += sum
			}
			if !timed {
				continue
			}
			if op.Op == client.OpEstimate {
				estOps++
			} else {
				sampleCore += time.Since(start)
				draws += max(1, len(op.Counts))
			}
		}
	}

	// Rung 2: the service.
	var sampleSvc, estSvc time.Duration
	svcRung := func(ops []client.Op) error {
		for k := range ops {
			op := &ops[k]
			spec := specs[op.ID]
			start := time.Now()
			var err error
			switch op.Op {
			case client.OpSample:
				err = svc.SampleBatchIntoCtx(ctx, spec, []int{op.Count}, dst[:1])
			case client.OpBatch:
				d := dst[:len(op.Counts)]
				if op.Seed != nil {
					err = svc.SampleBatchSeededInto(ctx, spec, *op.Seed, op.Counts, d)
				} else {
					err = svc.SampleBatchIntoCtx(ctx, spec, op.Counts, d)
				}
			case client.OpEstimate:
				_, err = svc.EstimateCtx(ctx, spec, op.Outputs)
			}
			if err != nil {
				return fmt.Errorf("ladder: service %s %s: %w", op.Op, op.ID, err)
			}
			if timed {
				if op.Op == client.OpEstimate {
					estSvc += time.Since(start)
				} else {
					sampleSvc += time.Since(start)
				}
			}
		}
		return nil
	}

	// Rung 3: the in-process mux, JSON and binary transports.
	jsonResp := make([][]byte, len(reqs))
	binResp := make([][]byte, len(reqs))
	serve := func(mux http.Handler, body []byte, binary bool) ([]byte, error) {
		req := httptest.NewRequest(http.MethodPost, "/v2/query", bytes.NewReader(body))
		ct := client.ContentTypeJSON
		if binary {
			ct = client.ContentTypeBinary
		}
		req.Header.Set("Content-Type", ct)
		req.Header.Set("Accept", ct)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("ladder: mux answered %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes(), nil
	}

	// Rung 4: privcountd over loopback, the same bodies on one connection.
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	post := func(body []byte) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.base+"/v2/query", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", client.ContentTypeJSON)
		resp, err := hc.Do(req)
		if err != nil {
			return fmt.Errorf("ladder: loopback: %w", err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("ladder: loopback answered %d", resp.StatusCode)
		}
		return err
	}

	// Rungs run one after another over all requests: an untimed pass warms
	// each, then a timed pass measures it.
	rungs := []struct {
		name string
		run  func(i int) error
	}{
		{"core", func(i int) error { coreRung(reqs[i]); return nil }},
		{"service", func(i int) error { return svcRung(reqs[i]) }},
		{"httpapi.mux.json", func(i int) (err error) {
			jsonResp[i], err = serve(muxJSON, jsonBodies[i], false)
			return err
		}},
		{"httpapi.mux.stream", func(i int) (err error) {
			binResp[i], err = serve(muxStream, binBodies[i], true)
			return err
		}},
		{"privcountd.loopback", func(i int) error { return post(jsonBodies[i]) }},
	}
	var rung [5]time.Duration // in the order above
	for r, rg := range rungs {
		for pass := 0; pass < 2; pass++ {
			timed = pass == 1
			tr := b.tr
			if !timed {
				tr = nil
			} else {
				runtime.GC() // no rung pays for an earlier one's garbage
			}
			for i := range reqs {
				var err error
				d := tr.timed(rg.name, uint64(i), func() { err = rg.run(i) })
				if err != nil {
					return err
				}
				if timed {
					rung[r] += d
				}
			}
		}
	}
	var codecJSON, codecFrame time.Duration
	// The SDK codecs on the recorded responses.
	for i, ops := range reqs {
		id := uint64(i)
		var err error
		codecJSON += b.tr.timed("client.json_codec", id, func() {
			var body []byte
			if body, err = json.Marshal(client.QueryRequest{Ops: ops}); err != nil {
				return
			}
			sink += float64(len(body))
			var resp client.QueryResponse
			err = json.Unmarshal(jsonResp[i], &resp)
		})
		if err != nil {
			return fmt.Errorf("ladder: json codec: %w", err)
		}
		codecFrame += b.tr.timed("client.frame_codec", id, func() {
			fw := client.NewFrameWriter(io.Discard)
			for k := range ops {
				if err = fw.WriteOp(&ops[k]); err != nil {
					return
				}
			}
			if err = fw.Close(); err != nil {
				return
			}
			fr := client.NewFrameReader(bytes.NewReader(binResp[i]))
			for {
				if _, err = fr.ReadResult(); err != nil {
					break
				}
			}
			if err == io.EOF {
				err = nil
			}
		})
		if err != nil {
			return fmt.Errorf("ladder: frame codec: %w", err)
		}
	}

	per := func(d time.Duration, n int, unit time.Duration) float64 {
		return float64(d) / float64(unit) / float64(max(n, 1))
	}
	nr := len(reqs)
	b.layer("core.rung_us_per_req", per(rung[0], nr, time.Microsecond), "us")
	b.layer("core.sampler_ns_per_draw", per(sampleCore, draws, time.Nanosecond), "ns")
	b.layer("service.rung_us_per_req", per(rung[1], nr, time.Microsecond), "us")
	b.layer("service.self_us_per_req", per(rung[1]-rung[0], nr, time.Microsecond), "us")
	b.layer("service.sample_ns_per_release", per(sampleSvc, draws, time.Nanosecond), "ns")
	b.layer("service.estimate_us_per_op", per(estSvc, estOps, time.Microsecond), "us")
	b.layer("httpapi.json_query_us_per_req", per(rung[2], nr, time.Microsecond), "us")
	b.layer("httpapi.stream_us_per_req", per(rung[3], nr, time.Microsecond), "us")
	b.layer("httpapi.self_us_per_req", per(rung[2]-rung[1], nr, time.Microsecond), "us")
	b.layer("privcountd.loopback_us_per_req", per(rung[4]-rung[2], nr, time.Microsecond), "us")
	b.layer("client.json_codec_us_per_req", per(codecJSON, nr, time.Microsecond), "us")
	b.layer("client.frame_codec_ns_per_op", per(codecFrame, nops, time.Nanosecond), "ns")
	return nil
}

// sink keeps replayed results observable so no call is optimised away.
var sink float64

// ledger rebuilds every spec of the workload in process, phase by
// phase: closed form or design solve, NewSampler, MLETable,
// UnbiasedEstimator, then the artifact codec and the filesystem store.
// lpS and closedS are the client-observed build times of this run, the
// bases of the two share metrics.
func (b *bench) ledger(ctx context.Context, arts map[string][]byte, lpS, closedS float64) (map[string]*tables, error) {
	design.ClearCache()
	runtime.GC()
	store, err := service.NewFSStore(filepath.Join(b.work, "ledger-store"))
	if err != nil {
		return nil, err
	}
	refs := make(map[string]*tables, len(b.in.specs))
	var construct, solve, sampler, mleT, debias, debiasClosed, solveLP time.Duration
	var encode, reload, put, get time.Duration
	var iters, rows, vars int
	for i, s := range b.in.specs {
		id := uint64(i)
		var m *core.Mechanism
		if lpBacked(s) {
			p := design.Problem{N: s.N, Alpha: s.Alpha, Props: s.Props,
				Objective: design.Objective{P: s.ObjectiveP}, ReduceSymmetry: s.Props&core.Symmetry != 0}
			var r *design.Result
			d := b.tr.timed("design.solve", id, func() {
				switch s.Kind {
				case service.KindLP:
					r, err = design.SolveCtx(ctx, p)
				case service.KindLPMinimax:
					r, err = design.SolveMinimaxCtx(ctx, p)
				default:
					var ch *design.Choice
					if ch, err = design.ChooseCtx(ctx, s.N, s.Alpha, s.Props); err == nil {
						m = ch.Mechanism
					}
				}
			})
			if err != nil {
				return nil, fmt.Errorf("ledger: solve %s: %w", s.ID(), err)
			}
			if r != nil {
				m = r.Mechanism
				iters += r.Iterations
				rows += r.Rows
				vars += r.Variables
			}
			solve += d
			solveLP += d
		} else {
			var ok bool
			construct += b.tr.timed("core.construct", id, func() { m, ok, err = closedForm(s) })
			if err != nil || !ok {
				return nil, fmt.Errorf("ledger: construct %s: %v", s.ID(), err)
			}
		}
		ref := &tables{mech: m}
		sampler += b.tr.timed("core.new_sampler", id, func() { _, err = core.NewSampler(m) })
		if err != nil {
			return nil, fmt.Errorf("ledger: sampler %s: %w", s.ID(), err)
		}
		mleT += b.tr.timed("core.mle_table", id, func() { ref.mle = m.MLETable() })
		d := b.tr.timed("core.unbiased_estimator", id, func() { ref.debias, _ = m.UnbiasedEstimator() })
		debias += d
		if !lpBacked(s) {
			debiasClosed += d
		}
		refs[s.ID()] = ref

		var a *service.Artifact
		reload += b.tr.timed("service.reload", id, func() {
			if a, err = service.DecodeArtifact(arts[s.ID()]); err == nil {
				_, _, err = a.Instantiate()
			}
		})
		if err != nil {
			return nil, fmt.Errorf("ledger: reload %s: %w", s.ID(), err)
		}
		var enc []byte
		encode += b.tr.timed("service.artifact_encode", id, func() { enc = a.Encode() })
		put += b.tr.timed("service.fsstore_put", id, func() { err = store.Put(s.ID(), enc) })
		if err != nil {
			return nil, err
		}
		var got []byte
		get += b.tr.timed("service.fsstore_get", id, func() { got, err = store.Get(s.ID()) })
		if err != nil || !bytes.Equal(got, enc) {
			return nil, fmt.Errorf("ledger: store round trip of %s: %v", s.ID(), err)
		}
	}
	ns := float64(len(b.in.specs))
	b.layer("core.construct_s", construct.Seconds(), "s")
	b.layer("design.solve_s", solve.Seconds(), "s")
	b.layer("core.new_sampler_s", sampler.Seconds(), "s")
	b.layer("core.mle_table_s", mleT.Seconds(), "s")
	b.layer("core.unbiased_estimator_s", debias.Seconds(), "s")
	b.layer("core.debias_share_closed", debiasClosed.Seconds()/closedS, "ratio")
	b.layer("design.solve_share_lp", solveLP.Seconds()/lpS, "ratio")
	b.layer("lp.iterations", float64(iters), "count")
	b.layer("lp.rows", float64(rows), "count")
	b.layer("lp.variables", float64(vars), "count")
	b.layer("service.artifact_encode_ms", ms(encode)/ns, "ms")
	b.layer("service.reload_ms", ms(reload)/ns, "ms")
	b.layer("service.fsstore_put_us", float64(put)/float64(time.Microsecond)/ns, "us")
	b.layer("service.fsstore_get_us", float64(get)/float64(time.Microsecond)/ns, "us")
	return refs, nil
}
