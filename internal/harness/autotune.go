package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

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
// boot is its own world (MeasureCandidates), so the sweep replays
// bit-identically for any worker count.

// AutotuneBackends are the crossing mechanisms whose Pareto fronts are
// measured — the three real isolation backends of the evaluation.
func AutotuneBackends() []gate.Backend {
	return []gate.Backend{gate.MPKShared, gate.MPKSwitched, gate.VMRPC}
}

// autotuneTolerancePct flags a candidate whose relative model error
// exceeds it as mispredicted.
const autotuneTolerancePct = 25

// autotuneLoads are the sweep's two workloads, thinner for -quick:
// redis GETs of 64-byte values for cycles per operation, and iperf
// into a 32 KiB buffer for throughput and the attribution columns.
func autotuneLoads(quick bool) (redis, iperf Load) {
	redis = Load{App: Redis, Op: OpGET, Payload: 64, Ops: 1500}
	iperf = Load{App: Iperf, Bytes: 4 << 20, RecvBuf: 32 << 10}
	if quick {
		redis.Ops, iperf.Bytes = 300, 512<<10
	}
	return redis, iperf
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
	// candidates served from a twin's measurement; Workers the
	// measurement pool's size (GOMAXPROCS).
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

// autotuneImages are the sweep's unique boots under its iperf load.
func autotuneImages(o Options) ([]Image, error) {
	_, load := autotuneLoads(o.Quick)
	cands, err := autotuneCandidates(explore.DefaultWorkload())
	if err != nil {
		return nil, err
	}
	var out []Image
	for i, twin := range twins(cands) {
		if twin != i {
			continue
		}
		cfg, err := autotuneConfig(cands[i])
		if err != nil {
			return nil, err
		}
		out = append(out, Image{cfg, load})
	}
	return out, nil
}

// Autotune explores every backend's design space, measures its static
// Pareto front under the real workload, validates the cost model
// point by point and fits a calibration from the results; quick runs
// the thin sweep.
func Autotune(quick bool) (*AutotuneResult, error) {
	w := explore.DefaultWorkload()
	res := &AutotuneResult{Workers: runtime.GOMAXPROCS(0), TolerancePct: autotuneTolerancePct}
	for _, be := range AutotuneBackends() {
		res.Backends = append(res.Backends, be.String())
	}
	cands, err := autotuneCandidates(w)
	if err != nil {
		return nil, err
	}
	redisLoad, iperfLoad := autotuneLoads(quick)
	redisRuns, err := MeasureCandidates(cands, redisLoad)
	if err != nil {
		return nil, err
	}
	iperfRuns, err := MeasureCandidates(cands, iperfLoad)
	if err != nil {
		return nil, err
	}

	// A candidate whose first twin is another one was served from that
	// twin's boot: a memo hit.
	points := make([]AutotunePoint, len(cands))
	twin := twins(cands)
	var uniq []int
	for i, c := range cands {
		names := make([]string, len(c.Libs))
		for k, l := range c.Libs {
			names[k] = l.VariantName()
		}
		r, sum := redisRuns[i], iperfRuns[i].Attr.Summary()
		points[i] = AutotunePoint{
			Backend:      c.Backend.String(),
			Libs:         names,
			Compartments: c.Plan.NumCompartments(),
			Hardened:     c.HardenedLibs,
			Security:     c.Security,
			Predicted:    c.EstCycles,
			Measured:     float64(r.ServerCycles) / float64(r.Ops),
			KReqPerSec:   r.KReqPerSec,
			Gbps:         iperfRuns[i].Gbps,
			Crossings:    r.Crossings,
			CrossingPct:  sum.CrossingPct,
			ComputePct:   sum.ComputePct,
			StallPct:     sum.StallPct,
			MemoHit:      twin[i] != i,
			breakdown:    explore.Breakdown(c, w),
		}
		if twin[i] == i {
			uniq = append(uniq, i)
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
		p.Mispredicted = p.RelErrPct > autotuneTolerancePct
		if p.Mispredicted {
			res.Mispredictions++
		}
	}
	res.UniqueRuns, res.MemoHits = len(uniq), len(points)-len(uniq)

	// Calibrate on unique boots only, so twin candidates (identical
	// signature across backends) don't double-weight the fit.
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

// runAutotune is the experiment entry: the sweep's report, plus the
// JSON report written to o.AutotuneOut when set.
func runAutotune(o Options) (string, error) {
	r, err := Autotune(o.Quick)
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
