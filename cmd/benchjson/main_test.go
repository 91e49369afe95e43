package main

import (
	"strings"
	"testing"
)

// TestParseCustomMetricColumns pins that a b.ReportMetric column between
// ns/op and the memory columns does not drop B/op and allocs/op.
func TestParseCustomMetricColumns(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"BenchmarkSampleBatchInto-8   \t   28954\t     19710 ns/op\t      1024 draws/op\t      16 B/op\t       1 allocs/op",
		"BenchmarkQueryBinary-8 3142 179747 ns/op 256.0 ops/op 61234 B/op 1184 allocs/op",
		"BenchmarkPlain 500 1252064 ns/op 4096 B/op 12 allocs/op",
		"BenchmarkNoMem-2 12122 50572 ns/op",
		"BenchmarkSkipped-8 \t--- SKIP: no data",
		"PASS",
	}, "\n")
	got := map[string]Result{}
	if err := parse(strings.NewReader(in), got); err != nil {
		t.Fatal(err)
	}
	want := map[string]Result{
		"BenchmarkSampleBatchInto": {NsOp: 19710, BytesOp: 16, AllocsOp: 1, Iterations: 28954},
		"BenchmarkQueryBinary":     {NsOp: 179747, BytesOp: 61234, AllocsOp: 1184, Iterations: 3142},
		"BenchmarkPlain":           {NsOp: 1252064, BytesOp: 4096, AllocsOp: 12, Iterations: 500},
		"BenchmarkNoMem":           {NsOp: 50572, Iterations: 12122},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %+v", len(got), len(want), got)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Errorf("%s = %+v, want %+v", name, g, w)
		}
	}
}
