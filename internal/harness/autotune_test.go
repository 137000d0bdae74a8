package harness

import (
	"reflect"
	"runtime"
	"testing"

	"flexos/internal/core/explore"
)

// TestAutotuneQuick pins the sweep's shape and the acceptance
// criteria: at least 8 measured Pareto candidates across 3 backends,
// per-candidate predicted-vs-measured error, and a calibration that
// tightens the model against its own measurements.
func TestAutotuneQuick(t *testing.T) {
	r, err := Autotune(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Backends) < 3 {
		t.Fatalf("swept %d backends, want >= 3", len(r.Backends))
	}
	if len(r.Points) < 8 {
		t.Fatalf("measured %d candidates, want >= 8", len(r.Points))
	}
	if r.FrontSize < 1 || r.FrontSize > len(r.Points) {
		t.Fatalf("measured front size %d of %d points", r.FrontSize, len(r.Points))
	}
	for i, p := range r.Points {
		if p.Measured <= 0 || p.KReqPerSec <= 0 || p.Gbps <= 0 {
			t.Fatalf("point %d: empty measurement %+v", i, p)
		}
		if p.Predicted <= 0 || p.RelErrPct < 0 {
			t.Fatalf("point %d: no validation numbers %+v", i, p)
		}
		if sum := p.CrossingPct + p.ComputePct + p.StallPct; sum < 99.0 || sum > 101.0 {
			t.Fatalf("point %d: attribution shares sum to %.2f%%", i, sum)
		}
	}
	// The validation ranking is worst-first.
	for i := 1; i < len(r.ByError); i++ {
		if r.Points[r.ByError[i-1]].RelErrPct < r.Points[r.ByError[i]].RelErrPct {
			t.Fatal("ByError not sorted worst-first")
		}
	}
	// Calibration must improve the model on the very points it was
	// fitted from, and leave DefaultWorkload untouched.
	if r.PostMAEPct >= r.PreMAEPct {
		t.Fatalf("calibration did not tighten the fit: pre %.2f%% post %.2f%%", r.PreMAEPct, r.PostMAEPct)
	}
	if r.PostMAEPct > 10 {
		t.Fatalf("post-calibration MAE %.2f%%, want < 10%%", r.PostMAEPct)
	}
	if r.Calibrated.BaseCycles == explore.DefaultWorkload().BaseCycles {
		t.Fatal("calibrated workload did not move off the default")
	}
	if explore.DefaultWorkload().BaseCycles != 4000 {
		t.Fatal("DefaultWorkload mutated by calibration")
	}
}

// TestAutotuneMemoization pins the gate-cost-signature memo: the
// single-compartment anchor appears once per backend but boots once.
// Memo twins share one boot, so their points agree by construction;
// the memo is sound only if every twin, booted on its own, measures
// what its first twin measured, under both of the sweep's loads.
func TestAutotuneMemoization(t *testing.T) {
	r, err := Autotune(true)
	if err != nil {
		t.Fatal(err)
	}
	if r.MemoHits < 2 {
		t.Fatalf("memo hits = %d, want >= 2 (one anchor per extra backend)", r.MemoHits)
	}
	if r.UniqueRuns+r.MemoHits != len(r.Points) {
		t.Fatalf("boots %d + hits %d != points %d", r.UniqueRuns, r.MemoHits, len(r.Points))
	}
	cands, err := autotuneCandidates(explore.DefaultWorkload())
	if err != nil {
		t.Fatal(err)
	}
	redisLoad, iperfLoad := autotuneLoads(true)
	run := func(c *explore.Candidate, load Load) *Result {
		cfg, err := autotuneConfig(c)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(cfg, load)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	compared := 0
	for i, j := range twins(cands) {
		if i == j {
			continue
		}
		for _, load := range []Load{redisLoad, iperfLoad} {
			first, got := run(cands[j], load), run(cands[i], load)
			compared++
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"ServerCycles", got.ServerCycles, first.ServerCycles},
				{"Crossings", got.Crossings, first.Crossings},
				{"Ops", got.Ops, first.Ops},
				{"Bytes", got.Bytes, first.Bytes},
				{"ByComponent", got.ByComponent, first.ByComponent},
				{"PerCPU", got.PerCPU, first.PerCPU},
				{"Net", got.Net, first.Net},
				{"Attr", got.Attr, first.Attr},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s on %v booted alone under %s: %s %v, its %v twin measured %v",
						cands[i].Describe(), cands[i].Backend, load.App, f.name, f.got, cands[j].Backend, f.want)
				}
			}
		}
	}
	if compared != 2*r.MemoHits {
		t.Fatalf("compared %d twin runs, want one per memo hit and load (%d)", compared, 2*r.MemoHits)
	}
}

// TestAutotuneDeterministic pins bit-identical replay and pool-size
// invariance: the full report must be equal for repeated runs and for
// any GOMAXPROCS.
func TestAutotuneDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	a, err := Autotune(true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Autotune(true)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(7)
	c, err := Autotune(true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Workers != 2 || c.Workers != 7 {
		t.Fatalf("reported %d and %d workers, want GOMAXPROCS 2 and 7", a.Workers, c.Workers)
	}
	c.Workers = a.Workers // the pool size is the only field allowed to differ
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical runs produced different reports")
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatal("worker count changed the report")
	}
}
