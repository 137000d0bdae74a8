package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// pass runs one seeded pass of a workload and returns its outcomes.
func pass(t *testing.T, name string, seed uint64) (workload, []outcome) {
	t.Helper()
	wl, err := setups[name](seed, nil)
	if err != nil {
		t.Fatalf("%s set-up: %v", name, err)
	}
	var outs []outcome
	for i := 0; i < wl.passLen(); i++ {
		o := wl.run(i, nil)
		if o.failed != 0 || o.attempted == 0 {
			t.Fatalf("%s seed %d run %d: %d of %d operations failed: %v", name, seed, i, o.failed, o.attempted, o.problems)
		}
		outs = append(outs, o)
	}
	return wl, outs
}

// TestDeterminism runs every workload twice on one seed and requires
// the simulated results — every field the sim_*, cycles.* and count
// metrics derive from — to be bit-identical. A second seed must change
// the inputs while the checks still pass.
func TestDeterminism(t *testing.T) {
	for name := range setups {
		t.Run(name, func(t *testing.T) {
			wl1, a := pass(t, name, 1)
			_, b := pass(t, name, 1)
			for i := range a {
				if !reflect.DeepEqual(a[i].sim, b[i].sim) {
					t.Errorf("run %d: seed 1 replayed differently:\n%+v\n%+v", i, a[i].sim, b[i].sim)
				}
			}
			wl2, _ := pass(t, name, 2)
			if wl1.inputDigest() == wl2.inputDigest() {
				t.Errorf("seeds 1 and 2 generated the same inputs: %s", wl1.inputDigest())
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the metrics
// the benchmark reports, with the same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []layerMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark reports %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, layerMetrics())
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"flexos/internal/core/build.newMachine":              "build",
		"flexos/internal/mem.(*Arena).Bytes":                 "mem",
		"flexos/internal/app/redis.(*connState).serve.func1": "redis",
		"runtime.memclrNoHeapPointers":                       "",
	} {
		if got, _ := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
