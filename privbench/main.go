// Command privbench is privcount's end-to-end benchmark. It spawns the
// privcountd binary built from the same checkout on loopback, drives it
// through the public client SDK with one workload, checks every output,
// and prints each metric by name with its unit; the last line of stdout
// is the JSON result. Run it through run.sh, which builds both binaries:
//
//	bash privbench/run.sh --workload query-json --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it records spans, replays the workload's inputs through
// the layer ladder and the build ledger, and reports the per-layer ones.
// README.md lists the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"privcount/client"
	"privcount/internal/service"
)

// runLimit bounds one run after the build; the contract allows 180s.
const runLimit = 170 * time.Second

type metric struct {
	name  string
	value float64
	unit  string
}

// bench is one run of one workload.
type bench struct {
	name    string
	seed    uint64
	seconds float64
	traced  bool
	bin     string // privcountd binary
	dir     string // .bench_build
	work    string // this run's working directory under dir
	in      *inputs
	tr      *tracer // nil unless traced

	// privcountd configuration.
	capacity, shards int
	storeBacked      bool

	mu         sync.Mutex
	estimates  []estRecord
	wrong      []string
	wrongCount int

	metrics []metric
	notes   []metric // printed, not part of the JSON result
}

func (b *bench) layer(name string, v float64, unit string) {
	b.metrics = append(b.metrics, metric{name, v, unit})
}

func (b *bench) note(name string, v float64, unit string) {
	b.notes = append(b.notes, metric{name, v, unit})
}

func main() {
	workload := flag.String("workload", "", "query-json, query-binary, churn or build-cold")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	bin := flag.String("server", "", "privcountd binary")
	dir := flag.String("dir", ".bench_build", "directory for run files")
	flag.Parse()
	os.Exit(run(*workload, *seed, *seconds, *trace == 1, *bin, *dir))
}

func run(workload string, seed uint64, seconds int, traced bool, bin, dir string) int {
	declared, err := readDeclared("BENCHMARK.json", traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "privbench:", err)
		return 2
	}
	if bin == "" || seconds < 1 {
		fmt.Fprintln(os.Stderr, "privbench: -server and -seconds >= 1 are required")
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	b := &bench{name: workload, seed: seed, seconds: float64(seconds), traced: traced, bin: bin, dir: dir,
		capacity: 256, shards: 8}
	switch workload {
	case "query-json":
		b.in = genQueryJSON(seed)
	case "query-binary":
		b.in = genQueryBinary(seed)
	case "churn":
		b.capacity, b.shards, b.storeBacked = churnCapacity, churnShards, true
		b.in = genChurn(seed, time.Duration(b.rounds())*churnWarmup+time.Duration(seconds)*time.Second)
	case "build-cold":
		b.in = genBuildCold(seed)
	default:
		fmt.Fprintf(os.Stderr, "privbench: unknown workload %q\n", workload)
		return 2
	}
	if traced {
		b.tr = newTracer()
	}
	b.work = filepath.Join(dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "privbench:", err)
		return 2
	}
	defer os.RemoveAll(b.work)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	defer stopAllServers()

	var attempted, failed int64
	if workload == "build-cold" {
		attempted, failed, err = b.runBuildCold(ctx)
	} else {
		attempted, failed, err = b.runServing(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "privbench:", err)
		return 1
	}
	if traced {
		path := filepath.Join(dir, "trace-"+workload+".jsonl")
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "privbench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(b.tr.spans), path)
	}
	return b.report(declared, attempted, failed)
}

// readDeclared returns the metric names BENCHMARK.json declares for
// this kind of run, so the result can be held to them exactly.
func readDeclared(path string, traced bool) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	list := doc.EndToEnd
	if traced {
		list = doc.PerLayer
	}
	out := make(map[string]string, len(list))
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out, nil
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric and the JSON result line, and returns the
// exit code: non-zero on any correctness failure or a metric that does
// not match the declared set.
func (b *bench) report(declared map[string]string, attempted, failed int64) int {
	res := result{Correct: b.wrongCount == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]resultValue, len(b.metrics))}
	for _, m := range b.metrics {
		fmt.Printf("%-34s %16.6g %s\n", m.name, m.value, m.unit)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(os.Stderr, "privbench: metric %s is %v\n", m.name, m.value)
			return 1
		}
		if u, ok := declared[m.name]; !ok || u != m.unit {
			fmt.Fprintf(os.Stderr, "privbench: metric %s (%s) is not declared in BENCHMARK.json\n", m.name, m.unit)
			return 1
		}
		res.Metrics[m.name] = resultValue{m.value, m.unit}
	}
	for name := range declared {
		if _, ok := res.Metrics[name]; !ok {
			fmt.Fprintf(os.Stderr, "privbench: declared metric %s was not measured\n", name)
			return 1
		}
	}
	for _, m := range b.notes {
		fmt.Printf("  (%s %.6g %s)\n", m.name, m.value, m.unit)
	}
	for _, w := range b.wrong {
		fmt.Fprintln(os.Stderr, "privbench: check failed:", w)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "privbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setupResult is one set-up: its duration and the client-observed
// time-to-ready of the LP-backed and closed-form specs it built.
type setupResult struct {
	seconds, lp, closed float64
	// buildSeconds is the server's build_seconds once set-up ended.
	buildSeconds float64
}

func (b *bench) serverArgs(k int) []string {
	args := []string{"-seed", fmt.Sprint(b.seed), "-capacity", fmt.Sprint(b.capacity), "-shards", fmt.Sprint(b.shards)}
	if b.storeBacked {
		args = append(args, "-store-dir", filepath.Join(b.work, fmt.Sprintf("store-%d", k)))
	}
	return args
}

func (b *bench) spawn(ctx context.Context, k int) (*server, error) {
	return startServer(ctx, b.bin, []string{"TMPDIR=" + b.work}, b.serverArgs(k)...)
}

// setup spawns privcountd and builds the workload's specs one at a time
// (PUT, then a blocking first query), then for a store-backed server
// waits until every artifact has been persisted.
func (b *bench) setup(ctx context.Context, k int) (*server, *setupResult, error) {
	start := time.Now()
	srv, err := b.spawn(ctx, k)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(srv.base, 1)
	res := &setupResult{}
	// Closed forms first: the LP solves then run on a heap the earlier
	// builds have already grown, which halves their set-up to set-up
	// spread.
	var order []service.Spec
	for _, lp := range []bool{false, true} {
		for _, s := range b.in.specs {
			if lpBacked(s) == lp {
				order = append(order, s)
			}
		}
	}
	// A store-backed server persists each artifact in the background; the
	// next build starts once it is stored, so build times do not include
	// the encoding and fsync of earlier artifacts, whose disk latency
	// varies widely on a shared host.
	var store *service.FSStore
	if b.storeBacked {
		if store, err = service.NewFSStore(filepath.Join(b.work, fmt.Sprintf("store-%d", k))); err != nil {
			return srv, nil, err
		}
	}
	for _, s := range order {
		t := time.Now()
		if err := b.buildOne(ctx, c, s); err != nil {
			return srv, nil, err
		}
		if d := time.Since(t).Seconds(); lpBacked(s) {
			res.lp += d
		} else {
			res.closed += d
		}
		if store != nil {
			if err := waitStored(store, s.ID()); err != nil {
				return srv, nil, err
			}
		}
	}
	res.seconds = time.Since(start).Seconds()
	st, err := srv.stats(ctx)
	if err != nil {
		return srv, nil, err
	}
	res.buildSeconds = st.BuildSeconds
	return srv, res, nil
}

// waitStored polls st until it holds id's artifact.
func waitStored(st *service.FSStore, id string) error {
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		ids, err := st.List()
		if err != nil {
			return err
		}
		if slices.Contains(ids, id) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("artifact %s not stored after 60s", id)
		}
	}
}

// buildOne admits s and blocks on a first query until it is ready.
func (b *bench) buildOne(ctx context.Context, c *client.Client, s service.Spec) error {
	if _, err := c.Create(ctx, s); err != nil {
		return fmt.Errorf("admitting %s: %w", s.ID(), err)
	}
	res, err := c.Query(ctx, []client.Op{{Op: client.OpSample, ID: s.ID(), Count: 0}})
	if err != nil {
		return fmt.Errorf("first query of %s: %w", s.ID(), err)
	}
	if err := res[0].Err(); err != nil {
		return fmt.Errorf("first query of %s: %w", s.ID(), err)
	}
	return nil
}

// setupReps is how many times an untraced run sets up; setup_s and the
// set-up build times are the medians. One set-up of a query workload
// builds its hot set in about 0.1s and varies by ±25% from one set-up to
// the next, so those take the median of fifteen. Traced runs set up once.
func (b *bench) setupReps() int {
	switch {
	case b.traced:
		return 1
	case b.name == "churn", b.name == "build-cold":
		return 5
	}
	return 15
}

// rounds is how many privcountd instances an untraced serving run
// measures, each for an equal share of the measured seconds; the
// end-to-end figures are medians over them. On a busy host, throughput
// and build times differ by up to 30% from one fresh instance to the
// next and between stretches of a few seconds; the median over four
// instances, with their set-ups spread over the run, damps both. Traced
// runs measure one instance.
func (b *bench) rounds() int {
	if b.traced {
		return 1
	}
	return 4
}

// segment is one measured phase on one privcountd instance.
type segment struct {
	t             *tally
	elapsed       float64
	cpu           time.Duration
	rss           float64
	before, after *serverStats
	panics        int64
	stealPct      float64 // host CPU steal over the segment
}

// measure warms srv up, then drives it for dur (segment k of the run)
// with the workload's requests.
func (b *bench) measure(ctx context.Context, srv *server, k int, dur time.Duration) (*segment, error) {
	conns := min(2, runtime.NumCPU())
	c := newClient(srv.base, conns)
	if b.name == "query-binary" {
		c = newStreamClient(srv.base, conns)
	}
	// do issues request i of the workload, timed from due.
	do := func(i int, due time.Time, t *tally) {
		ops := b.in.reqs[i%len(b.in.reqs)]
		traced := b.traced && i%2 == 0
		if b.name == "query-binary" {
			b.stream(ctx, c, ops, traced, uint64(i), t)
		} else {
			b.query(ctx, c, ops, due, traced, uint64(i), t)
		}
	}
	// Churn's arrivals are one schedule; segment k replays its window
	// [k·(warm-up+dur), (k+1)·(warm-up+dur)), warm-up first.
	w0 := time.Duration(k) * (churnWarmup + dur)
	warmFrom, _ := slices.BinarySearch(b.in.arrivals, w0)
	from, _ := slices.BinarySearch(b.in.arrivals, w0+churnWarmup)
	to, _ := slices.BinarySearch(b.in.arrivals, w0+churnWarmup+dur)
	warm := &tally{}
	if b.name == "churn" {
		openLoop(b.in.arrivals, warmFrom, from, 8, warm, func(i int, due time.Time) { do(i, due, warm) })
	} else {
		closedLoop(time.Second, conns, func(_, i int) { do(i, time.Now(), warm) })
	}

	seg := &segment{t: &tally{}}
	var err error
	if seg.before, err = srv.stats(ctx); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	steal0, total0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if b.name == "churn" {
		openLoop(b.in.arrivals, from, to, 8, seg.t, func(i int, due time.Time) { do(i, due, seg.t) })
	} else {
		closedLoop(dur, conns, func(_, i int) { do(i, time.Now(), seg.t) })
	}
	seg.elapsed = time.Since(start).Seconds()
	steal1, total1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	seg.stealPct = 100 * float64(steal1-steal0) / float64(max(total1-total0, 1))
	cpu1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	seg.cpu = cpu1 - cpu0
	if seg.after, err = srv.stats(ctx); err != nil {
		return nil, err
	}
	if seg.rss, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	seg.panics = srv.panics.Load()
	if seg.t.releases == 0 {
		return nil, fmt.Errorf("no successful releases (first error: %s)", seg.t.firstErr)
	}
	if seg.t.failed > 0 {
		fmt.Fprintf(os.Stderr, "privbench: %d of %d ops failed; first error: %s\n", seg.t.failed, seg.t.ops, seg.t.firstErr)
	}
	return seg, nil
}

// runServing runs query-json, query-binary or churn: set-ups, rounds()
// of which each host one measured segment, then the checks (and
// for a traced run the ladder and the ledger) on the last instance.
func (b *bench) runServing(ctx context.Context) (attempted, failed int64, err error) {
	var srv *server
	var su []*setupResult
	var segs []*segment
	reps, rounds := b.setupReps(), b.rounds()
	dur := time.Duration(b.seconds / float64(rounds) * float64(time.Second))
	for k := 0; k < reps; k++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return 0, 0, fmt.Errorf("stopping privcountd: %w", err)
			}
		}
		var r *setupResult
		if srv, r, err = b.setup(ctx, k); err != nil {
			return 0, 0, err
		}
		su = append(su, r)
		// Set-ups k where k·rounds/reps steps up host the segments, so
		// the set-ups are spread over the run rather than bunched before
		// it; the last set-up always hosts one.
		if (k+1)*rounds/reps > k*rounds/reps {
			seg, err := b.measure(ctx, srv, len(segs), dur)
			if err != nil {
				return 0, 0, err
			}
			segs = append(segs, seg)
			attempted += seg.t.ops
			failed += seg.t.failed
		}
	}

	// The checks use their own connection: after a handler panic the
	// server closes connections the measured phase may still hold.
	c := newClient(srv.base, 1)
	arts, err := b.exportAll(ctx, c)
	if err != nil {
		return 0, 0, err
	}
	var lrefs map[string]*tables
	if b.traced {
		b.probe(ctx, srv, segs[0])
		b.serverLayers(segs[0], "POST /v2/query", su[0].lp+su[0].closed-su[0].buildSeconds)
		if err := b.ladder(ctx, srv, arts); err != nil {
			return 0, 0, err
		}
		if lrefs, err = b.ledger(ctx, arts, su[0].lp, su[0].closed); err != nil {
			return 0, 0, err
		}
	} else {
		b.endToEnd(su, segs)
	}

	// Correctness: recorded estimates, seeded repeats, chi-square, and
	// the exported artifacts.
	refs := make(map[string]*tables)
	for _, e := range b.estimates {
		if refs[e.op.ID] == nil {
			if refs[e.op.ID], err = reference(b.in.spec(e.op.ID), arts[e.op.ID], true); err != nil {
				return 0, 0, err
			}
		}
	}
	// The chi-square tests run on the smallest and the largest closed-form
	// mechanism of the workload.
	var chi []service.Spec
	for _, s := range b.in.specs {
		if !lpBacked(s) {
			chi = append(chi, s)
		}
	}
	slices.SortFunc(chi, func(x, y service.Spec) int { return x.N - y.N })
	chi = []service.Spec{chi[0], chi[len(chi)-1]}
	for _, s := range chi {
		if refs[s.ID()] == nil {
			if refs[s.ID()], err = reference(s, arts[s.ID()], false); err != nil {
				return 0, 0, err
			}
		}
	}
	b.checkEstimates(refs)
	if err := b.checkServing(ctx, c, srv.base, refs, chi); err != nil {
		return 0, 0, err
	}
	for _, s := range b.in.specs {
		b.checkArtifact(s, arts[s.ID()], lrefs[s.ID()])
	}
	return attempted, failed, nil
}

// endToEnd records the untraced metrics: set-up figures as medians over
// the set-ups, the rest as medians over the measured segments.
func (b *bench) endToEnd(su []*setupResult, segs []*segment) {
	med := func(f func(*setupResult) float64) float64 {
		xs := make([]float64, len(su))
		for i, r := range su {
			xs[i] = f(r)
		}
		return median(xs)
	}
	over := func(f func(*segment) float64) float64 {
		xs := make([]float64, len(segs))
		for i, g := range segs {
			xs[i] = f(g)
		}
		return median(xs)
	}
	b.layer("setup_s", med(func(r *setupResult) float64 { return r.seconds }), "s")
	b.layer("released_per_s", over(func(g *segment) float64 { return float64(g.t.releases) / g.elapsed }), "1/s")
	b.layer("req_p50_ms", over(func(g *segment) float64 { return quantile(g.t.lat, 0.5) }), "ms")
	b.layer("build_lp_s", med(func(r *setupResult) float64 { return r.lp }), "s")
	b.layer("build_closed_s", med(func(r *setupResult) float64 { return r.closed }), "s")
	b.layer("server_cpu_ns_per_release", over(func(g *segment) float64 {
		return float64(g.cpu.Nanoseconds()) / float64(g.t.releases)
	}), "ns")
	b.layer("rss_peak_mb", over(func(g *segment) float64 { return g.rss }), "MB")

	var ops, failed, panics int64
	reqs := len(segs[0].t.lat)
	var late []float64
	for _, g := range segs {
		ops += g.t.ops
		failed += g.t.failed
		panics += g.panics
		reqs = min(reqs, len(g.t.lat))
		late = append(late, g.t.late...)
	}
	b.note("req_p99_ms", over(func(g *segment) float64 { return quantile(g.t.lat, 0.99) }), "ms")
	b.note("op_error_rate", float64(failed)/float64(max(ops, 1)), "ratio")
	b.note("httpapi.handler_panics", float64(panics), "count")
	b.note("host_steal_pct", over(func(g *segment) float64 { return g.stealPct }), "%")
	b.note("segments", float64(len(segs)), "count")
	b.note("requests_per_segment_min", float64(reqs), "count")
	b.note("setups", float64(len(su)), "count")
	if len(late) > 0 {
		b.note("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	}
	if reqs < 1000 {
		fmt.Fprintf(os.Stderr, "privbench: a segment has only %d requests; fewer than 10 lie beyond p99\n", reqs)
	}
}

// probe runs keepAliveProbe on the workload's first mechanism after the
// measured phase g, and counts the handler panics it causes into g.
func (b *bench) probe(ctx context.Context, srv *server, g *segment) {
	b.layer("httpapi.keepalive_stream_breaks", float64(keepAliveProbe(ctx, srv.base, b.in.specs[0])), "count")
	time.Sleep(50 * time.Millisecond) // lets the stderr reader see the last panic lines
	g.panics = srv.panics.Load()
}

// serverLayers records the per-layer metrics read from outside the
// server: /v2/stats deltas over the measured phase, stderr panics, load
// generator lateness and tracing overhead. buildWait is the summed
// client time-to-ready minus the server's build seconds.
func (b *bench) serverLayers(g *segment, route string, buildWait float64) {
	before, after, t := g.before, g.after, g.t
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	b.layer("op_error_rate", float64(t.failed)/float64(max(t.ops, 1)), "ratio")
	b.layer("httpapi.handler_panics", float64(g.panics), "count")
	b.layer("httpapi.route_p99_ms", after.RouteLatency[route]["p99"]*1000, "ms")
	b.layer("service.cache_hit_ratio", ratio(after.Hits-before.Hits, after.Misses-before.Misses), "ratio")
	b.layer("service.evictions", float64(after.Evictions-before.Evictions), "count")
	b.layer("service.entries", float64(after.Entries), "count")
	b.layer("service.capacity", float64(b.capacity), "count")
	b.layer("service.store_hit_ratio", ratio(after.StoreHits-before.StoreHits, after.StoreMisses-before.StoreMisses), "ratio")
	b.layer("service.store_bytes_read", float64(after.StoreBytesRead-before.StoreBytesRead), "bytes")
	b.layer("service.sheds", float64(after.Sheds), "count")
	b.layer("service.build_queue_wait_s", buildWait, "s")
	late := 0.0
	if len(t.late) > 0 {
		late = quantile(t.late, 0.99)
	}
	b.layer("loadgen.req_p99_ms", quantile(t.lat, 0.99), "ms")
	b.layer("loadgen.late_p99_ms", late, "ms")
	overhead := 0.0
	if len(t.latTraced) > 0 && len(t.latPlain) > 0 {
		overhead = (median(t.latTraced)/median(t.latPlain) - 1) * 100
	}
	b.layer("trace.overhead_pct", overhead, "%")
}

// exportAll downloads every spec's artifact, touching each with a query
// first so a mechanism evicted from the cache is resident again.
func (b *bench) exportAll(ctx context.Context, c *client.Client) (map[string][]byte, error) {
	arts := make(map[string][]byte, len(b.in.specs))
	for _, s := range b.in.specs {
		if err := b.buildOne(ctx, c, s); err != nil {
			return nil, err
		}
		data, err := c.ExportArtifact(ctx, s)
		if err != nil {
			return nil, fmt.Errorf("exporting %s: %w", s.ID(), err)
		}
		arts[s.ID()] = data
	}
	return arts, nil
}

func (in *inputs) spec(id string) service.Spec {
	for _, s := range in.specs {
		if s.ID() == id {
			return s
		}
	}
	panic("unknown spec " + id) // ops only name generated specs
}

// pollInterval is build-cold's status poll period, small next to its
// shortest build (about a second).
const pollInterval = time.Millisecond

// runBuildCold admits each spec in turn on a fresh privcountd and times
// it to ready, then releases a seeded verification batch from it.
func (b *bench) runBuildCold(ctx context.Context) (attempted, failed int64, err error) {
	var setups []float64
	var srv *server
	for k := 0; k < b.setupReps(); k++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return 0, 0, fmt.Errorf("stopping privcountd: %w", err)
			}
		}
		start := time.Now()
		if srv, err = b.spawn(ctx, k); err != nil {
			return 0, 0, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	c := newClient(srv.base, 1)
	before, err := srv.stats(ctx)
	if err != nil {
		return 0, 0, err
	}
	cpu0, err := srv.cpu()
	if err != nil {
		return 0, 0, err
	}
	steal0, total0, err := hostCPU()
	if err != nil {
		return 0, 0, err
	}
	t := &tally{}
	var lpS, closedS float64
	verify := make([][]int, len(b.in.specs))
	start := time.Now()
	for i, s := range b.in.specs {
		id := uint64(i)
		t0 := time.Now()
		root := b.tr.begin("loadgen.build", id, -1, true, t0)
		_, err := c.Create(ctx, s)
		t.add(ms(time.Since(t0)), false, 0, 1, 0, nil)
		if err != nil {
			return 0, 0, fmt.Errorf("admitting %s: %w", s.ID(), err)
		}
		for polls := 0; ; polls++ {
			tp := time.Now()
			traced := b.traced && polls%2 == 0
			sp := b.tr.begin("client.Status", id, root, traced, tp)
			st, err := c.Status(ctx, s)
			b.tr.end(sp)
			t.add(ms(time.Since(tp)), traced, 0, 1, 0, nil)
			if err != nil {
				return 0, 0, fmt.Errorf("polling %s: %w", s.ID(), err)
			}
			if st.Ready() {
				break
			}
			if st.State == "failed" {
				return 0, 0, fmt.Errorf("building %s: %v", s.ID(), st.Err())
			}
			time.Sleep(pollInterval)
		}
		b.tr.end(root)
		fmt.Fprintf(os.Stderr, "privbench: %s ready after %.3fs\n", s.ID(), time.Since(t0).Seconds())
		if d := time.Since(t0).Seconds(); lpBacked(s) {
			lpS += d
		} else {
			closedS += d
		}
		// The verification query: its batch feeds the chi-square test and
		// the seeded-repeat check below.
		ops := b.in.reqs[i]
		tq := time.Now()
		res, err := c.Query(ctx, ops)
		if err != nil {
			return 0, 0, fmt.Errorf("verification query of %s: %w", s.ID(), err)
		}
		rel, bad := 0, 0
		for k := range ops {
			n, oerr := b.outcome(&ops[k], &res[k])
			if oerr != nil {
				bad++
				continue
			}
			rel += n
		}
		t.add(ms(time.Since(tq)), false, rel, len(ops), bad, nil)
		verify[i] = res[0].Outputs
	}
	seg := &segment{t: t, elapsed: time.Since(start).Seconds(), before: before}
	steal1, total1, err := hostCPU()
	if err != nil {
		return 0, 0, err
	}
	seg.stealPct = 100 * float64(steal1-steal0) / float64(max(total1-total0, 1))
	cpu1, err := srv.cpu()
	if err != nil {
		return 0, 0, err
	}
	seg.cpu = cpu1 - cpu0
	if seg.after, err = srv.stats(ctx); err != nil {
		return 0, 0, err
	}
	if seg.rss, err = srv.peakRSSMB(); err != nil {
		return 0, 0, err
	}
	seg.panics = srv.panics.Load()
	if t.releases == 0 {
		return t.ops, t.failed, errors.New("no successful releases")
	}
	arts, err := b.exportAll(ctx, c)
	if err != nil {
		return 0, 0, err
	}
	var lrefs map[string]*tables
	if b.traced {
		b.probe(ctx, srv, seg)
		b.serverLayers(seg, "GET /v2/mechanisms/{id}", lpS+closedS-(seg.after.BuildSeconds-before.BuildSeconds))
		if err := b.ladder(ctx, srv, arts); err != nil {
			return 0, 0, err
		}
		if lrefs, err = b.ledger(ctx, arts, lpS, closedS); err != nil {
			return 0, 0, err
		}
	} else {
		su := make([]*setupResult, len(setups))
		for i, s := range setups {
			su[i] = &setupResult{seconds: s, lp: lpS, closed: closedS}
		}
		b.endToEnd(su, []*segment{seg})
	}

	refs := make(map[string]*tables, len(b.in.specs))
	for i, s := range b.in.specs {
		b.checkArtifact(s, arts[s.ID()], lrefs[s.ID()])
		r, err := reference(s, arts[s.ID()], false)
		if err != nil {
			return 0, 0, err
		}
		if l := lrefs[s.ID()]; l != nil {
			r.mle, r.debias = l.mle, l.debias
		}
		refs[s.ID()] = r
		op := b.in.reqs[i][0]
		b.chiSquare(s.ID(), s.N/2, r.mech.Column(s.N/2), verify[i])
		again, err := c.SampleBatchSeeded(ctx, s, *op.Seed, op.Counts)
		if err != nil {
			return 0, 0, fmt.Errorf("repeating the seeded batch of %s: %w", s.ID(), err)
		}
		if !slices.Equal(again, verify[i]) {
			b.fail("seeded batch %s: repeat differs", s.ID())
		}
	}
	b.checkEstimates(refs)
	return t.ops, t.failed, nil
}
