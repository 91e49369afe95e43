// Command benchjson converts `go test -bench` output into a stable JSON
// artifact and gates benchmark regressions against a committed baseline.
// CI uses it twice per benchmark group: once to publish BENCH_*.json
// artifacts, once to fail the build when a benchmark regresses more than
// the threshold against the baseline checked in under .github/bench/.
//
// Usage:
//
//	go test ./internal/lp/ -run '^$' -bench . | benchjson -o BENCH_lp.json
//	benchjson -o merged.json lp.txt root.txt        # merge several runs
//	benchjson -baseline .github/bench/BENCH_lp.json -max-regress 0.30 lp.txt
//
// The JSON maps benchmark name (with the -cpuCount suffix stripped) to
// {"ns_op": …, "allocs_op": …, "bytes_op": …}. Comparison checks ns/op
// and allocs/op; benchmarks present only on one side are reported but do
// not fail the gate, so adding or retiring benchmarks does not require a
// lockstep baseline update.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Result is one benchmark's measurements. Iterations is go test's b.N:
// a run that managed only one iteration inside -benchtime is a single
// sample, too noisy to gate on (it is still published in the artifact).
type Result struct {
	NsOp       float64 `json:"ns_op"`
	AllocsOp   float64 `json:"allocs_op,omitempty"`
	BytesOp    float64 `json:"bytes_op,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
}

// benchLine matches the name and iteration count that open a result
// line, e.g. "BenchmarkFoo-8   123"; the measurements follow as
// "<value> <unit>" pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s`)

// metric matches one "<value> <unit>" pair.
var metric = regexp.MustCompile(`([\d.e+-]+) (\S+/op)`)

// parse reads result lines. A line counts only if it reports ns/op; its
// B/op and allocs/op are read wherever they appear, so custom
// b.ReportMetric columns (draws/op, ops/op) in between do not hide them.
func parse(r io.Reader, into map[string]Result) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		res := Result{}
		res.Iterations, _ = strconv.Atoi(m[2])
		hasNs := false
		for _, p := range metric.FindAllStringSubmatch(line[len(m[0]):], -1) {
			v, err := strconv.ParseFloat(p[1], 64)
			if err != nil {
				continue
			}
			switch p[2] {
			case "ns/op":
				res.NsOp, hasNs = v, true
			case "B/op":
				res.BytesOp = v
			case "allocs/op":
				res.AllocsOp = v
			}
		}
		if hasNs {
			into[m[1]] = res
		}
	}
	return sc.Err()
}

func main() {
	var (
		out        = flag.String("o", "", "write merged JSON to this file (default stdout when no -baseline)")
		baseline   = flag.String("baseline", "", "baseline JSON to compare against; exits 1 on regression")
		maxRegress = flag.Float64("max-regress", 0.30, "allowed fractional regression vs baseline (0.30 = +30%)")
	)
	flag.Parse()

	results := map[string]Result{}
	if flag.NArg() == 0 {
		if err := parse(os.Stdin, results); err != nil {
			fatal(err)
		}
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		err = parse(f, results)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	if *out != "" || *baseline == "" {
		buf, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fatal(err)
		}
		buf = append(buf, '\n')
		if *out == "" || *out == "-" {
			os.Stdout.Write(buf)
		} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatal(err)
		}
	}

	if *baseline == "" {
		return
	}
	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fatal(err)
	}
	base := map[string]Result{}
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parse baseline %s: %w", *baseline, err))
	}

	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)

	var regressions []string
	for _, name := range names {
		cur := results[name]
		b, ok := base[name]
		if !ok {
			fmt.Printf("new       %-40s %12.0f ns/op (no baseline)\n", name, cur.NsOp)
			continue
		}
		// A single-iteration measurement is one noisy sample — wall-clock
		// guards in the test suite cover the heavy paths; don't let one
		// slow shared-runner sample fail the gate. But a benchmark whose
		// baseline had enough samples and now runs so slowly it cannot
		// collect them is itself the regression signal: gate it at twice
		// the threshold so noise still gets the benefit of the doubt.
		if cur.Iterations < minGateIters {
			if b.Iterations >= minGateIters && b.NsOp > 0 && cur.NsOp > b.NsOp*(1+2*(*maxRegress)) {
				regressions = append(regressions, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%; fell below %d iterations)",
					name, b.NsOp, cur.NsOp, pct(cur.NsOp, b.NsOp), minGateIters))
				fmt.Printf("REGRESSED %-40s %12.0f ns/op (baseline %.0f, %+.1f%%; sample count collapsed)\n",
					name, cur.NsOp, b.NsOp, pct(cur.NsOp, b.NsOp))
				continue
			}
			fmt.Printf("1-shot    %-40s %12.0f ns/op (baseline %.0f, %+.1f%%; too few iterations to gate)\n",
				name, cur.NsOp, b.NsOp, pct(cur.NsOp, b.NsOp))
			continue
		}
		status := "ok"
		if b.NsOp > 0 && cur.NsOp > b.NsOp*(1+*maxRegress) {
			status = "REGRESSED"
			regressions = append(regressions, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)",
				name, b.NsOp, cur.NsOp, 100*(cur.NsOp/b.NsOp-1)))
		}
		if b.AllocsOp > 0 && cur.AllocsOp > b.AllocsOp*(1+*maxRegress) {
			status = "REGRESSED"
			regressions = append(regressions, fmt.Sprintf("%s: %.1f -> %.1f allocs/op (%+.1f%%)",
				name, b.AllocsOp, cur.AllocsOp, 100*(cur.AllocsOp/b.AllocsOp-1)))
		}
		fmt.Printf("%-9s %-40s %12.0f ns/op (baseline %.0f, %+.1f%%)\n",
			status, name, cur.NsOp, b.NsOp, pct(cur.NsOp, b.NsOp))
	}
	for name := range base {
		if _, ok := results[name]; !ok {
			fmt.Printf("missing   %-40s (in baseline, not in run)\n", name)
		}
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchjson: %d regression(s) beyond %.0f%%:\n", len(regressions), *maxRegress*100)
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		os.Exit(1)
	}
}

// minGateIters is the fewest b.N iterations a measurement needs before
// the regression gate trusts it.
const minGateIters = 3

func pct(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (cur/base - 1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
