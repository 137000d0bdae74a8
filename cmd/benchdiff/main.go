// Command benchdiff is the CI bench-regression gate: it runs the
// benchmarks the baseline file gates, takes the median of -count runs
// per metric, and fails if any metric regresses beyond its baseline
// tolerance.
//
// Usage:
//
//	benchdiff [-baseline BENCH_gate.json] [-input saved-bench.txt] [-json benchdiff.json]
//
// -json writes the per-entry comparison (baseline, median, delta,
// tolerance, status) as machine-readable JSON — the CI artifact other
// tooling diffs across runs. An entry that beats its baseline by more
// than its tolerance is reported as "improved": not a failure, but a
// stale baseline that no longer catches a regression of that size.
// When $GITHUB_STEP_SUMMARY is set the same comparison is appended
// there as a markdown table, so every PR shows the bench gate's
// verdict inline.
//
// Without -input it runs
//
//	go test -run=NONE -bench='^(<benchmarks>)$' -benchtime=1x -count=3 .
//
// in the current directory, where <benchmarks> are the top-level
// benchmark names of the baseline's entries, so the file alone decides
// what the gate runs. With -input it checks a saved `go test -bench`
// output instead — which is also how the gate itself is tested
// (main_test.go).
//
// Baselines carry per-entry tolerances: simulator metrics (sim-Mbps,
// sim-front-size) are deterministic and get the tight default, while
// wall-clock ns/op entries get a wide one because single-iteration
// wall time on shared CI runners is noisy.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// check is one baseline assertion on one benchmark metric.
type check struct {
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	// Direction is "lower" (lower is better: ns/op) or "higher"
	// (higher is better: sim-Mbps, sim-shed-kreqs).
	Direction string `json:"direction"`
	// TolerancePct overrides the file-level threshold for this check.
	TolerancePct float64 `json:"tolerance_pct,omitempty"`
}

// baseline is the committed gate file.
type baseline struct {
	Protocol     string             `json:"protocol"`
	ThresholdPct float64            `json:"threshold_pct"`
	Entries      map[string][]check `json:"entries"`
}

// result is one metric's comparison outcome, exported via -json and
// the GitHub step summary.
type result struct {
	Benchmark    string  `json:"benchmark"`
	Metric       string  `json:"metric"`
	Baseline     float64 `json:"baseline"`
	Median       float64 `json:"median"`
	DeltaPct     float64 `json:"delta_pct"`
	TolerancePct float64 `json:"tolerance_pct"`
	Direction    string  `json:"direction"`
	// Status is "ok", "improved" (better than the baseline by more than
	// the tolerance: the baseline is stale), "fail" or "missing".
	Status string `json:"status"`
}

// report is the -json document.
type report struct {
	BaselineFile string   `json:"baseline_file"`
	Protocol     string   `json:"protocol"`
	ThresholdPct float64  `json:"threshold_pct"`
	Results      []result `json:"results"`
	Failures     int      `json:"failures"`
	Improved     int      `json:"improved"`
}

func main() {
	baseFile := flag.String("baseline", "BENCH_gate.json", "baseline file")
	input := flag.String("input", "", "check a saved go test -bench output instead of running")
	count := flag.Int("count", 3, "bench -count when running")
	jsonOut := flag.String("json", "", "write the per-entry comparison as JSON to this file")
	flag.Parse()

	base, err := loadBaseline(*baseFile)
	if err != nil {
		fatal(err)
	}
	var out string
	if *input != "" {
		b, err := os.ReadFile(*input)
		if err != nil {
			fatal(err)
		}
		out = string(b)
	} else {
		out, err = runBenches(benchPattern(base), *count)
		if err != nil {
			fatal(err)
		}
	}
	rep := compare(base, parseBenchOutput(out))
	rep.BaselineFile = *baseFile
	fmt.Printf("%-44s %-12s %12s %12s %8s %s\n",
		"benchmark", "metric", "baseline", "median", "delta", "status")
	for _, r := range rep.Results {
		switch r.Status {
		case "missing":
			fmt.Printf("%-44s %-12s %12.1f %12s %8s MISSING\n",
				r.Benchmark, r.Metric, r.Baseline, "-", "-")
		case "fail":
			fmt.Printf("%-44s %-12s %12.1f %12.1f %+7.1f%% FAIL (>%g%%)\n",
				r.Benchmark, r.Metric, r.Baseline, r.Median, r.DeltaPct, r.TolerancePct)
		case "improved":
			fmt.Printf("%-44s %-12s %12.1f %12.1f %+7.1f%% improved (>%g%%: stale baseline)\n",
				r.Benchmark, r.Metric, r.Baseline, r.Median, r.DeltaPct, r.TolerancePct)
		default:
			fmt.Printf("%-44s %-12s %12.1f %12.1f %+7.1f%% ok\n",
				r.Benchmark, r.Metric, r.Baseline, r.Median, r.DeltaPct)
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, &rep); err != nil {
			fatal(err)
		}
	}
	if err := writeStepSummary(&rep); err != nil {
		fatal(err)
	}
	if rep.Improved > 0 {
		fmt.Printf("benchdiff: %d metric(s) beat their baseline beyond tolerance; re-record them\n", rep.Improved)
	}
	if rep.Failures > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) regressed beyond tolerance\n", rep.Failures)
		os.Exit(1)
	}
	fmt.Println("benchdiff: all metrics within tolerance")
}

// compare checks every baseline entry against the measured medians.
func compare(base *baseline, medians map[string]map[string]float64) report {
	rep := report{Protocol: base.Protocol, ThresholdPct: base.ThresholdPct}
	names := make([]string, 0, len(base.Entries))
	for name := range base.Entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, c := range base.Entries[name] {
			tol := c.TolerancePct
			if tol == 0 {
				tol = base.ThresholdPct
			}
			r := result{
				Benchmark: name, Metric: c.Metric, Baseline: c.Value,
				TolerancePct: tol, Direction: c.Direction, Status: "ok",
			}
			med, ok := medians[name][c.Metric]
			if !ok {
				r.Status = "missing"
				rep.Failures++
				rep.Results = append(rep.Results, r)
				continue
			}
			r.Median = med
			var regressed, improved bool
			if c.Value == 0 {
				// A zero baseline (e.g. copy-cycles on the shared data
				// path) must stay zero.
				regressed = med != 0
			} else {
				r.DeltaPct = 100 * (med - c.Value) / c.Value
				// Lower-is-better: growth is regression.
				regressed, improved = r.DeltaPct > tol, r.DeltaPct < -tol
				if c.Direction == "higher" {
					regressed, improved = improved, regressed
				}
			}
			switch {
			case regressed:
				r.Status = "fail"
				rep.Failures++
			case improved:
				r.Status = "improved"
				rep.Improved++
			}
			rep.Results = append(rep.Results, r)
		}
	}
	return rep
}

// writeJSON writes the machine-readable comparison.
func writeJSON(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeStepSummary appends a markdown table of the comparison to
// $GITHUB_STEP_SUMMARY when set (no-op elsewhere), so the gate's
// verdict renders on the PR's checks page.
func writeStepSummary(rep *report) error {
	path := os.Getenv("GITHUB_STEP_SUMMARY")
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	var b strings.Builder
	verdict := "all metrics within tolerance ✅"
	if rep.Failures > 0 {
		verdict = fmt.Sprintf("%d metric(s) regressed beyond tolerance ❌", rep.Failures)
	}
	if rep.Improved > 0 {
		verdict += fmt.Sprintf("; %d metric(s) improved beyond tolerance (stale baseline)", rep.Improved)
	}
	fmt.Fprintf(&b, "### Bench regression gate (%s)\n\n%s\n\n", rep.BaselineFile, verdict)
	b.WriteString("| benchmark | metric | baseline | median | delta | tolerance | status |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|---|\n")
	for _, r := range rep.Results {
		med, delta := "-", "-"
		if r.Status != "missing" {
			med = fmt.Sprintf("%.1f", r.Median)
			delta = fmt.Sprintf("%+.1f%%", r.DeltaPct)
		}
		status := r.Status
		if r.Status == "fail" || r.Status == "missing" {
			status = "**" + r.Status + "**"
		}
		fmt.Fprintf(&b, "| %s | %s | %.1f | %s | %s | %g%% | %s |\n",
			r.Benchmark, r.Metric, r.Baseline, med, delta, r.TolerancePct, status)
	}
	b.WriteString("\n")
	_, err = f.WriteString(b.String())
	return err
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(2)
}

func loadBaseline(path string) (*baseline, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base baseline
	if err := json.Unmarshal(b, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if base.ThresholdPct <= 0 {
		base.ThresholdPct = 25
	}
	return &base, nil
}

// benchPattern is the -bench regex matching exactly the top-level
// benchmarks the baseline has entries for.
func benchPattern(base *baseline) string {
	seen := map[string]bool{}
	var names []string
	for entry := range base.Entries {
		name, _, _ := strings.Cut(entry, "/")
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return "^(" + strings.Join(names, "|") + ")$"
}

func runBenches(pattern string, count int) (string, error) {
	cmd := exec.Command("go", "test", "-run=NONE", "-bench="+pattern,
		"-benchtime=1x", fmt.Sprintf("-count=%d", count), ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("bench run failed: %w\n%s", err, out)
	}
	return string(out), nil
}

// parseBenchOutput collects every sample per (benchmark, metric) from
// standard `go test -bench` output and reduces each to its median.
// Benchmark names are normalized by stripping the -GOMAXPROCS suffix.
func parseBenchOutput(out string) map[string]map[string]float64 {
	samples := map[string]map[string][]float64{}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// fields[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if samples[name] == nil {
				samples[name] = map[string][]float64{}
			}
			unit := fields[i+1]
			samples[name][unit] = append(samples[name][unit], v)
		}
	}
	medians := map[string]map[string]float64{}
	for name, metrics := range samples {
		medians[name] = map[string]float64{}
		for unit, vs := range metrics {
			sort.Float64s(vs)
			medians[name][unit] = vs[len(vs)/2]
		}
	}
	return medians
}
