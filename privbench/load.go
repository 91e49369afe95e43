package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"privcount/client"
)

// tally accumulates one measured phase.
type tally struct {
	mu sync.Mutex
	// lat holds request latencies in ms; latTraced and latPlain split
	// them by whether the request was traced (traced runs only).
	lat, latTraced, latPlain []float64
	// late holds open-loop dispatch lateness in ms.
	late     []float64
	releases int64
	ops      int64
	failed   int64
	// firstErr keeps one failure message for the report.
	firstErr string
}

func (t *tally) add(latMS float64, traced bool, rel, ops, failed int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lat = append(t.lat, latMS)
	if traced {
		t.latTraced = append(t.latTraced, latMS)
	} else {
		t.latPlain = append(t.latPlain, latMS)
	}
	t.releases += int64(rel)
	t.ops += int64(ops)
	t.failed += int64(failed)
	if err != nil && t.firstErr == "" {
		t.firstErr = err.Error()
	}
}

// quantile returns the p-quantile of xs by linear interpolation.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// newClient returns an SDK client whose transport holds at most conns
// connections to the server.
func newClient(base string, conns int) *client.Client {
	return newClientTransport(base, &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	})
}

// newStreamClient is newClient for query-binary's streams: each stream
// opens its own connection, which the server closes after the response.
// privcountd's stream handler returns before the request body's final
// chunk is read, and net/http then panics ("invalid concurrent Body.Read
// call") while it waits for the connection's next request, so a next
// request on that connection would be lost. The panics are still counted
// (httpapi.handler_panics); only their effect on later requests is kept
// out of the measured ops.
func newStreamClient(base string, conns int) *client.Client {
	return newClientTransport(base, &http.Transport{
		MaxConnsPerHost:    conns,
		DisableKeepAlives:  true,
		DisableCompression: true,
	})
}

func newClientTransport(base string, tr *http.Transport) *client.Client {
	c, err := client.New(base, client.WithHTTPClient(&http.Client{Transport: tr}))
	if err != nil {
		panic(err) // base is always a well-formed loopback URL
	}
	return c
}

// closedLoop runs conns workers for d; each sends its next request only
// after the previous one completed. do executes request number i.
func closedLoop(d time.Duration, conns int, do func(worker, i int)) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; time.Now().Before(deadline); i += conns {
				do(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// openLoop dispatches request i at start+arrivals[i] for every i in
// [from, to), regardless of completions, onto workers goroutines. do
// receives the due time, so latency counts any wait a stall imposes.
func openLoop(arrivals []time.Duration, from, to, workers int, t *tally, do func(i int, due time.Time)) {
	if from >= to {
		return
	}
	type job struct {
		i   int
		due time.Time
	}
	// Sized to the number of sends, so the dispatcher never blocks and
	// its lateness measures only its own scheduling.
	jobs := make(chan job, to-from)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				do(j.i, j.due)
			}
		}()
	}
	start := time.Now().Add(-arrivals[from])
	for i := from; i < to; i++ {
		due := start.Add(arrivals[i])
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late := ms(time.Since(due))
		t.mu.Lock()
		t.late = append(t.late, late)
		t.mu.Unlock()
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
}

// outcome validates one op's result and returns its release count; a
// non-nil error means the op failed (counted in op_error_rate), while
// an out-of-range or malformed payload is a correctness failure.
func (b *bench) outcome(op *client.Op, r *client.OpResult) (int, error) {
	if err := r.Err(); err != nil {
		return 0, err
	}
	n := b.in.n[op.ID]
	inRange := func(xs []int) bool {
		for _, x := range xs {
			if x < 0 || x > n {
				return false
			}
		}
		return true
	}
	switch op.Op {
	case client.OpSample:
		if r.Output == nil || !inRange([]int{*r.Output}) {
			b.fail("sample %s count %d: output %v outside [0,%d]", op.ID, op.Count, r.Output, n)
		}
		return 1, nil
	case client.OpBatch:
		if len(r.Outputs) != len(op.Counts) || !inRange(r.Outputs) {
			b.fail("batch %s: %d outputs for %d counts or outside [0,%d]", op.ID, len(r.Outputs), len(op.Counts), n)
		}
		return len(r.Outputs), nil
	case client.OpEstimate:
		if len(r.MLE) != len(op.Outputs) || !inRange(r.MLE) || r.Sum == nil || r.Unbiased == nil {
			b.fail("estimate %s: malformed result", op.ID)
			return 0, nil
		}
		b.recordEstimate(op, r)
		return len(op.Outputs), nil
	}
	return 0, fmt.Errorf("unknown op %q", op.Op)
}

// query sends one JSON request through the SDK and tallies it.
func (b *bench) query(ctx context.Context, c *client.Client, ops []client.Op, start time.Time, traced bool, id uint64, t *tally) {
	root := b.tr.begin("loadgen.request", id, -1, traced, start)
	call := b.tr.begin("client.Query", id, root, traced, time.Now())
	res, err := c.Query(ctx, ops)
	b.tr.end(call)
	rel, failed := 0, 0
	if err != nil {
		failed = len(ops)
	} else {
		for k := range ops {
			r, oerr := b.outcome(&ops[k], &res[k])
			rel += r
			if oerr != nil {
				failed++
				err = oerr
			}
		}
	}
	b.tr.end(root)
	t.add(ms(time.Since(start)), traced, rel, len(ops), failed, err)
}

// stream runs one binary QueryStream of ops and tallies it; ops without
// a valid result (a broken stream) count as failed.
func (b *bench) stream(ctx context.Context, c *client.Client, ops []client.Op, traced bool, id uint64, t *tally) {
	start := time.Now()
	root := b.tr.begin("loadgen.request", id, -1, traced, start)
	call := b.tr.begin("client.QueryStream", id, root, traced, start)
	rel, ok := 0, 0
	st, err := c.QueryStream(ctx)
	if err == nil {
		sent := make(chan error, 1)
		go func() {
			for k := range ops {
				if err := st.Send(&ops[k]); err != nil {
					sent <- err
					return
				}
			}
			sent <- st.CloseSend()
		}()
		for k := 0; ; k++ {
			r, rerr := st.Recv()
			if rerr == io.EOF {
				if k != len(ops) {
					err = fmt.Errorf("stream ended after %d of %d results", k, len(ops))
				}
				break
			}
			if rerr != nil {
				err = rerr
				break
			}
			if k >= len(ops) {
				err = errors.New("stream returned more results than ops")
				break
			}
			n, oerr := b.outcome(&ops[k], r)
			if oerr != nil {
				err = oerr
				continue
			}
			rel += n
			ok++
		}
		st.Close() // unblocks a sender stuck on a broken stream
		if serr := <-sent; serr != nil && err == nil {
			err = serr
		}
	}
	b.tr.end(call)
	b.tr.end(root)
	t.add(ms(time.Since(start)), traced, rel, len(ops), len(ops)-ok, err)
}
