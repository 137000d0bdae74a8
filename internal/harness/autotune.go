package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"flexos/internal/core/build"
	"flexos/internal/core/explore"
	"flexos/internal/core/gate"
	"flexos/internal/core/spec"
)

// --- Autotune: measured ranking of the explorer's Pareto front --------
//
// The explorer ranks the design space with a static cost model; the
// simulator can boot any of those configurations and attribute every
// cycle. Autotune connects the two: every candidate on the static
// Pareto front of every backend is synthesized into a build.Config,
// booted, and measured under the real workload (redis GET for cycles
// per operation, iperf for throughput). The output is a measured
// Pareto front, a model-validation report (predicted vs measured,
// ranked by error), and a calibration fitted from the measurements
// that rewrites the explorer's cost constants — the paper's "toolchain
// picks the configuration" promise, closed with ground truth.
//
// Determinism: the simulator runs entirely in virtual time and every
// candidate writes to its own result slot, so the sweep replays
// bit-identically for any worker count.

// AutotuneBackends are the crossing mechanisms whose Pareto fronts are
// measured — the three real isolation backends of the evaluation.
func AutotuneBackends() []gate.Backend {
	return []gate.Backend{gate.MPKShared, gate.MPKSwitched, gate.VMRPC}
}

// AutotuneOpts sizes the sweep.
type AutotuneOpts struct {
	// Ops is the number of measured redis GET requests per candidate.
	Ops int
	// Payload is the redis value size in bytes.
	Payload int
	// IperfBytes is the iperf transfer size per candidate.
	IperfBytes int
	// RecvBuf is the iperf server receive buffer.
	RecvBuf int
	// Workers sizes the measurement pool; 0 selects GOMAXPROCS.
	Workers int
	// TolerancePct flags candidates whose relative model error exceeds
	// it as mispredicted.
	TolerancePct float64
}

// DefaultAutotuneOpts returns the full-sweep (or -quick) sizing.
func DefaultAutotuneOpts(quick bool) AutotuneOpts {
	o := AutotuneOpts{
		Ops:          1500,
		Payload:      64,
		IperfBytes:   4 << 20,
		RecvBuf:      32 << 10,
		TolerancePct: 25,
	}
	if quick {
		o.Ops = 300
		o.IperfBytes = 512 << 10
	}
	return o
}

// AutotunePoint is one measured Pareto candidate.
type AutotunePoint struct {
	Backend      string   `json:"backend"`
	Libs         []string `json:"libs"`
	Compartments int      `json:"compartments"`
	Hardened     int      `json:"hardened"`
	Security     float64  `json:"security"`
	// Predicted is the static model's cycles/op; Measured the redis GET
	// cycles/op the simulator actually spent; RelErrPct the magnitude
	// of the relative error against the measurement.
	Predicted    float64 `json:"predicted_cycles_op"`
	Measured     float64 `json:"measured_cycles_op"`
	RelErrPct    float64 `json:"rel_err_pct"`
	Mispredicted bool    `json:"mispredicted"`
	// PostPredicted/PostRelErrPct restate the prediction under the
	// calibration fitted from this sweep's measurements.
	PostPredicted float64 `json:"post_predicted_cycles_op"`
	PostRelErrPct float64 `json:"post_rel_err_pct"`
	// Workload metrics of the measured run.
	KReqPerSec float64 `json:"kreq_per_sec"`
	Gbps       float64 `json:"gbps"`
	Crossings  uint64  `json:"crossings"`
	// Attribution columns from the iperf run's full cycle ledger.
	CrossingPct float64 `json:"crossing_pct"`
	ComputePct  float64 `json:"compute_pct"`
	StallPct    float64 `json:"stall_pct"`
	// MemoHit marks a point served by a twin configuration's run (same
	// gate-cost signature) instead of its own boot.
	MemoHit bool `json:"memo_hit"`
	// OnMeasuredFront marks membership of the measured Pareto front
	// across all backends.
	OnMeasuredFront bool `json:"on_measured_front"`

	breakdown explore.CostBreakdown
}

// AutotuneResult is the full measured-autotuning report.
type AutotuneResult struct {
	Backends []string `json:"backends"`
	// Points holds every measured candidate, per backend in front
	// order; ByError lists indices into Points ranked worst-first.
	Points  []AutotunePoint `json:"points"`
	ByError []int           `json:"by_error"`
	// UniqueRuns counts configurations actually booted; MemoHits the
	// candidates served from a twin's measurement.
	UniqueRuns int `json:"unique_runs"`
	MemoHits   int `json:"memo_hits"`
	Workers    int `json:"workers"`
	// Model validation before and after calibration: mean and max
	// relative error, and the number of flagged mispredictions.
	TolerancePct   float64 `json:"tolerance_pct"`
	PreMAEPct      float64 `json:"pre_mae_pct"`
	PreMaxErrPct   float64 `json:"pre_max_err_pct"`
	PostMAEPct     float64 `json:"post_mae_pct"`
	PostMaxErrPct  float64 `json:"post_max_err_pct"`
	Mispredictions int     `json:"mispredictions"`
	// Calibration is the fitted correction; Calibrated the explorer
	// workload it produces (DefaultWorkload itself is never mutated).
	Calibration explore.Calibration `json:"calibration"`
	Calibrated  explore.Workload    `json:"-"`
	// FrontSize is the measured Pareto front's cardinality.
	FrontSize int `json:"front_size"`
}

// gateSignature canonicalizes what determines a candidate's measured
// cost: the compartment partition, the hardened set, and the backend.
// A single-compartment candidate never crosses a gate, so its backend
// is irrelevant to the measurement and is dropped from the key — the
// all-hardened combination, on every backend's front, boots once.
func gateSignature(c *explore.Candidate) string {
	groups := make([]string, 0, len(c.Plan.Compartments))
	for _, comp := range c.Plan.Compartments {
		libs := append([]string(nil), comp...)
		sort.Strings(libs)
		groups = append(groups, strings.Join(libs, ","))
	}
	sort.Strings(groups)
	be := "-"
	if c.SeparatedPairs > 0 {
		be = c.Backend.String()
	}
	return be + "|" + strings.Join(groups, ";")
}

// autotuneCandidates lists every backend's static Pareto front, in
// deterministic front order, followed by the backend's anchors.
func autotuneCandidates(w explore.Workload) ([]*explore.Candidate, error) {
	var out []*explore.Candidate
	for _, be := range AutotuneBackends() {
		cands, err := explore.Explore(spec.DefaultImage(), be, w)
		if err != nil {
			return nil, err
		}
		front := explore.ParetoFront(cands)
		onFront := make(map[*explore.Candidate]bool, len(front))
		for _, c := range front {
			onFront[c] = true
		}
		out = append(out, front...)
		// Anchor: the fully consolidated (single-compartment) candidates,
		// whether or not this backend's front kept them. They never cross
		// a gate, so their signature drops the backend and the three
		// backends' anchors collapse to one boot — the memoization the
		// sweep is built around, and a built-in check that a crossing-free
		// world measures identically whatever the gate mechanism is.
		for _, c := range cands {
			if c.SeparatedPairs == 0 && !onFront[c] {
				out = append(out, c)
			}
		}
	}
	return out, nil
}

// autotuneConfig is the image autotune boots for a candidate.
func autotuneConfig(c *explore.Candidate) (build.Config, error) {
	cfg, err := CandidateConfig(c)
	cfg.Name = fmt.Sprintf("autotune-%s-c%d-h%d", c.Backend, c.Plan.NumCompartments(), c.HardenedLibs)
	cfg.Net = tcpipThread
	return cfg, err
}

// autotuneImages are the sweep's unique boots under its iperf load.
func autotuneImages(o Options) ([]Image, error) {
	opt := DefaultAutotuneOpts(o.Quick)
	cands, err := autotuneCandidates(explore.DefaultWorkload())
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []Image
	for _, c := range cands {
		if sig := gateSignature(c); !seen[sig] {
			seen[sig] = true
			cfg, err := autotuneConfig(c)
			if err != nil {
				return nil, err
			}
			out = append(out, Image{cfg, Load{App: Iperf, Bytes: opt.IperfBytes, RecvBuf: opt.RecvBuf}})
		}
	}
	return out, nil
}

// autotuneRun is one unique boot's measurements, shared by every
// candidate with the same gate-cost signature.
type autotuneRun struct {
	once      sync.Once
	err       error
	measured  float64
	kreq      float64
	gbps      float64
	crossings uint64
	crossPct  float64
	compPct   float64
	stallPct  float64
}

// Autotune explores every backend's design space, measures its static
// Pareto front under the real workload, validates the cost model
// point by point and fits a calibration from the results.
func Autotune(opt AutotuneOpts) (*AutotuneResult, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	w := explore.DefaultWorkload()

	type job struct {
		cand *explore.Candidate
		sig  string
	}
	res := &AutotuneResult{Workers: workers, TolerancePct: opt.TolerancePct}
	for _, be := range AutotuneBackends() {
		res.Backends = append(res.Backends, be.String())
	}
	cands, err := autotuneCandidates(w)
	if err != nil {
		return nil, err
	}
	jobs := make([]job, len(cands))
	for i, c := range cands {
		jobs[i] = job{cand: c, sig: gateSignature(c)}
	}

	// Memoized measurement pool: workers pull job indices from a shared
	// counter and write to per-index slots; sync.Once collapses twin
	// signatures to one boot however the work interleaves.
	runs := make(map[string]*autotuneRun, len(jobs))
	for _, j := range jobs {
		if _, ok := runs[j.sig]; !ok {
			runs[j.sig] = &autotuneRun{}
		}
	}
	points := make([]AutotunePoint, len(jobs))
	firstOf := make(map[string]int, len(runs))
	for i, j := range jobs {
		if _, ok := firstOf[j.sig]; !ok {
			firstOf[j.sig] = i
		}
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for wk := 0; wk < workers; wk++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				run := runs[j.sig]
				run.once.Do(func() { measureAutotune(run, j.cand, opt) })
				c := j.cand
				names := make([]string, len(c.Libs))
				for k, l := range c.Libs {
					names[k] = l.VariantName()
				}
				points[i] = AutotunePoint{
					Backend:      c.Backend.String(),
					Libs:         names,
					Compartments: c.Plan.NumCompartments(),
					Hardened:     c.HardenedLibs,
					Security:     c.Security,
					Predicted:    c.EstCycles,
					Measured:     run.measured,
					KReqPerSec:   run.kreq,
					Gbps:         run.gbps,
					Crossings:    run.crossings,
					CrossingPct:  run.crossPct,
					ComputePct:   run.compPct,
					StallPct:     run.stallPct,
					MemoHit:      firstOf[j.sig] != i,
					breakdown:    explore.Breakdown(c, w),
				}
			}
		}()
	}
	wg.Wait()
	for _, r := range runs {
		if r.err != nil {
			return nil, r.err
		}
	}

	// Model validation: relative error against the measured truth.
	relErr := func(pred, meas float64) float64 {
		if meas == 0 {
			return 0
		}
		e := 100 * (pred - meas) / meas
		if e < 0 {
			e = -e
		}
		return e
	}
	for i := range points {
		p := &points[i]
		p.RelErrPct = relErr(p.Predicted, p.Measured)
		p.Mispredicted = p.RelErrPct > opt.TolerancePct
		if p.Mispredicted {
			res.Mispredictions++
		}
		if p.MemoHit {
			res.MemoHits++
		}
	}
	res.UniqueRuns = len(runs)

	// Calibrate on unique boots only, so twin candidates (identical
	// signature across backends) don't double-weight the fit.
	uniq := make([]int, 0, len(firstOf))
	for _, i := range firstOf {
		uniq = append(uniq, i)
	}
	sort.Ints(uniq) // fixed fit order: map iteration must not reorder the float sums
	pts := make([]explore.CalPoint, 0, len(uniq))
	for _, i := range uniq {
		pts = append(pts, explore.CalPoint{Breakdown: points[i].breakdown, Measured: points[i].Measured})
	}
	res.Calibration = explore.Calibrate(pts)
	res.Calibrated = res.Calibration.Apply(w)
	for i := range points {
		p := &points[i]
		b := p.breakdown
		p.PostPredicted = res.Calibration.Base +
			res.Calibration.CrossScale*b.Crossing + res.Calibration.SHScale*b.SHTax
		p.PostRelErrPct = relErr(p.PostPredicted, p.Measured)
		res.PreMAEPct += p.RelErrPct
		res.PostMAEPct += p.PostRelErrPct
		if p.RelErrPct > res.PreMaxErrPct {
			res.PreMaxErrPct = p.RelErrPct
		}
		if p.PostRelErrPct > res.PostMaxErrPct {
			res.PostMaxErrPct = p.PostRelErrPct
		}
	}
	if len(points) > 0 {
		res.PreMAEPct /= float64(len(points))
		res.PostMAEPct /= float64(len(points))
	}

	// Measured Pareto front across all backends: the skyline in
	// (measured cycles asc, security desc), exact ties kept.
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := points[order[a]], points[order[b]]
		if pa.Measured != pb.Measured {
			return pa.Measured < pb.Measured
		}
		return pa.Security > pb.Security
	})
	bestSec, bestSecCost := 0.0, 0.0
	seen := false
	for _, i := range order {
		p := &points[i]
		switch {
		case !seen || p.Security > bestSec:
			seen = true
			bestSec, bestSecCost = p.Security, p.Measured
			p.OnMeasuredFront = true
			res.FrontSize++
		case p.Security == bestSec && p.Measured == bestSecCost:
			p.OnMeasuredFront = true
			res.FrontSize++
		}
	}

	// Validation ranking, worst predictions first (ties by index so the
	// order is fully deterministic).
	res.ByError = make([]int, len(points))
	for i := range res.ByError {
		res.ByError[i] = i
	}
	sort.SliceStable(res.ByError, func(a, b int) bool {
		return points[res.ByError[a]].RelErrPct > points[res.ByError[b]].RelErrPct
	})
	res.Points = points
	return res, nil
}

// measureAutotune boots one candidate's configuration and fills the
// shared run entry: redis GET for cycles/op, iperf for throughput and
// the attribution columns.
func measureAutotune(run *autotuneRun, c *explore.Candidate, opt AutotuneOpts) {
	cfg, err := autotuneConfig(c)
	if err != nil {
		run.err = fmt.Errorf("autotune %s: %w", c.Describe(), err)
		return
	}
	r, err := Run(cfg, Load{App: Redis, Op: OpGET, Payload: opt.Payload, Ops: opt.Ops})
	if err != nil {
		run.err = fmt.Errorf("autotune redis %s: %w", cfg.Name, err)
		return
	}
	run.measured = float64(r.ServerCycles) / float64(r.Ops)
	run.kreq = r.KReqPerSec
	ir, err := Run(cfg, Load{App: Iperf, Bytes: opt.IperfBytes, RecvBuf: opt.RecvBuf})
	if err != nil {
		run.err = fmt.Errorf("autotune iperf %s: %w", cfg.Name, err)
		return
	}
	run.gbps = ir.Gbps
	run.crossings = r.Crossings
	sum := ir.Attr.Summary()
	run.crossPct = sum.CrossingPct
	run.compPct = sum.ComputePct
	run.stallPct = sum.StallPct
}

// runAutotune is the experiment entry: the sweep's report, plus the
// JSON report written to o.AutotuneOut when set.
func runAutotune(o Options) (string, error) {
	r, err := Autotune(DefaultAutotuneOpts(o.Quick))
	if err != nil {
		return "", err
	}
	out := FormatAutotune(r)
	if o.AutotuneOut == "" {
		return out, nil
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(o.AutotuneOut, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	return out + fmt.Sprintf("autotune: wrote model-validation report to %s\n", o.AutotuneOut), nil
}

// FormatAutotune renders the measured-autotuning report.
func FormatAutotune(r *AutotuneResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Autotune: measured Pareto front over %s (%d points, %d boots, %d memo hits, %d workers)\n",
		strings.Join(r.Backends, "/"), len(r.Points), r.UniqueRuns, r.MemoHits, r.Workers)
	fmt.Fprintf(&b, "%-13s %5s %5s %5s %10s %10s %7s %9s %7s %6s %6s %6s %5s %6s\n",
		"backend", "comps", "hard", "sec", "pred(cy)", "meas(cy)", "err%", "kreq/s", "Gb/s",
		"cross%", "comp%", "stall%", "memo", "front")
	for _, p := range r.Points {
		flag := " "
		if p.Mispredicted {
			flag = "!"
		}
		memo, front := "", ""
		if p.MemoHit {
			memo = "hit"
		}
		if p.OnMeasuredFront {
			front = "*"
		}
		fmt.Fprintf(&b, "%-13s %5d %5d %5.1f %10.0f %10.0f %6.1f%s %9.1f %7.3f %5.1f%% %5.1f%% %5.1f%% %5s %6s\n",
			p.Backend, p.Compartments, p.Hardened, p.Security,
			p.Predicted, p.Measured, p.RelErrPct, flag,
			p.KReqPerSec, p.Gbps, p.CrossingPct, p.ComputePct, p.StallPct, memo, front)
	}
	fmt.Fprintf(&b, "model error: pre-calibration MAE %.1f%% (max %.1f%%), post %.1f%% (max %.1f%%), %d/%d beyond %.0f%%\n",
		r.PreMAEPct, r.PreMaxErrPct, r.PostMAEPct, r.PostMaxErrPct,
		r.Mispredictions, len(r.Points), r.TolerancePct)
	fmt.Fprintf(&b, "calibration: base %.0f cy, crossing x%.3f, sh-tax x%.3f (scalar=%v)\n",
		r.Calibration.Base, r.Calibration.CrossScale, r.Calibration.SHScale, r.Calibration.Scalar)
	worst := r.ByError
	if len(worst) > 3 {
		worst = worst[:3]
	}
	for _, i := range worst {
		p := r.Points[i]
		fmt.Fprintf(&b, "  worst: %-13s %d comps %d hard: pred %.0f vs meas %.0f (%.1f%% -> %.1f%% calibrated)\n",
			p.Backend, p.Compartments, p.Hardened, p.Predicted, p.Measured, p.RelErrPct, p.PostRelErrPct)
	}
	return b.String()
}
