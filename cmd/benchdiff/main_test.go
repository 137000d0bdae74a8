package main

import (
	"testing"
)

// gate is a small baseline exercising each kind of check: a wall-clock
// entry at the file-level tolerance, a higher-is-better sim metric and
// a zero baseline that must stay zero.
var gate = &baseline{
	ThresholdPct: 25,
	Entries: map[string][]check{
		"BenchmarkRun": {
			{Metric: "ns/op", Value: 1000, Direction: "lower"},
			{Metric: "sim-Mbps", Value: 400, Direction: "higher"},
		},
		"BenchmarkRun/shared": {
			{Metric: "copy-cycles", Value: 0, Direction: "lower", TolerancePct: 0.001},
		},
	},
}

// saved is `go test -bench -count=3` output for the gate above; each
// case swaps in its own sample lines.
func saved(run, shared string) string {
	return "goos: linux\ngoarch: amd64\npkg: flexos\n" + run + shared + "PASS\nok  \tflexos\t1.234s\n"
}

const sharedOK = "BenchmarkRun/shared-2 \t1\t 900 ns/op\t 0 copy-cycles\n" +
	"BenchmarkRun/shared-2 \t1\t 900 ns/op\t 0 copy-cycles\n" +
	"BenchmarkRun/shared-2 \t1\t 900 ns/op\t 0 copy-cycles\n"

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		name        string
		out         string
		failures    int
		failing     string
		wantMissing bool
		improved    string
	}{
		{
			name: "in tolerance",
			out: saved("BenchmarkRun-2 \t1\t 1100 ns/op\t 398.0 sim-Mbps\n"+
				"BenchmarkRun-2 \t1\t 1050 ns/op\t 401.0 sim-Mbps\n"+
				"BenchmarkRun-2 \t1\t 5000 ns/op\t 400.0 sim-Mbps\n", sharedOK),
		},
		{
			name: "2x ns/op slowdown",
			out: saved("BenchmarkRun-2 \t1\t 2000 ns/op\t 400.0 sim-Mbps\n"+
				"BenchmarkRun-2 \t1\t 2100 ns/op\t 400.0 sim-Mbps\n"+
				"BenchmarkRun-2 \t1\t 1900 ns/op\t 400.0 sim-Mbps\n", sharedOK),
			failures: 1, failing: "ns/op",
		},
		{
			name: "missing metric",
			out: saved("BenchmarkRun-2 \t1\t 1000 ns/op\n"+
				"BenchmarkRun-2 \t1\t 1000 ns/op\n"+
				"BenchmarkRun-2 \t1\t 1000 ns/op\n", sharedOK),
			failures: 1, failing: "sim-Mbps", wantMissing: true,
		},
		{
			name: "stale baseline",
			out: saved("BenchmarkRun-2 \t1\t 700 ns/op\t 400.0 sim-Mbps\n"+
				"BenchmarkRun-2 \t1\t 650 ns/op\t 520.0 sim-Mbps\n"+
				"BenchmarkRun-2 \t1\t 720 ns/op\t 401.0 sim-Mbps\n", sharedOK),
			improved: "ns/op",
		},
		{
			name: "zero baseline turned non-zero",
			out: saved("BenchmarkRun-2 \t1\t 1000 ns/op\t 400.0 sim-Mbps\n",
				"BenchmarkRun/shared-2 \t1\t 900 ns/op\t 512 copy-cycles\n"),
			failures: 1, failing: "copy-cycles",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := compare(gate, parseBenchOutput(tc.out))
			if rep.Failures != tc.failures {
				t.Fatalf("%d failures, want %d: %+v", rep.Failures, tc.failures, rep.Results)
			}
			if len(rep.Results) != 3 {
				t.Fatalf("%d results, want one per baseline check", len(rep.Results))
			}
			wantImproved := 0
			if tc.improved != "" {
				wantImproved = 1
			}
			if rep.Improved != wantImproved {
				t.Errorf("%d improved, want %d", rep.Improved, wantImproved)
			}
			for _, r := range rep.Results {
				want := "ok"
				if r.Metric == tc.improved {
					want = "improved"
				}
				if r.Metric == tc.failing {
					want = "fail"
					if tc.wantMissing {
						want = "missing"
					}
				}
				if r.Status != want {
					t.Errorf("%s %s: status %q, want %q", r.Benchmark, r.Metric, r.Status, want)
				}
			}
		})
	}
}

// TestBenchPatternIsTheGatedSet pins the derived -bench regex to the
// committed baseline: exactly the fourteen gated benchmarks, so the gate
// runs neither more nor fewer than it checks.
func TestBenchPatternIsTheGatedSet(t *testing.T) {
	base, err := loadBaseline("../../BENCH_gate.json")
	if err != nil {
		t.Fatal(err)
	}
	const want = "^(BenchmarkAutotune|BenchmarkBatching|BenchmarkChaosnet|BenchmarkContextSwitch|BenchmarkExplore|" +
		"BenchmarkFig3DataPath|BenchmarkGateCall|BenchmarkGateCallBatch|BenchmarkNestedCall|BenchmarkNewWorld|BenchmarkOverload|" +
		"BenchmarkRegistryCall|BenchmarkSmp|BenchmarkSupervisedCall)$"
	if got := benchPattern(base); got != want {
		t.Fatalf("bench pattern\n got %s\nwant %s", got, want)
	}
}
