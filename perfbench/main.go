// Command perfbench is the FlexOS simulator's benchmark. It runs one
// seeded, closed-loop workload for a fixed host time and reports two
// clocks: host time (what the simulator costs to run) and simulated
// cycles (the subject of study, which host-only changes must leave
// bit-identical). Every run's outputs are checked; the last line of
// standard output is one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics of a separate traced run
// (--trace 1).
//
//	go run . --workload sweep|iperf-bulk|redis-kv --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"flexos/internal/clock"
)

// setupRepeats is how many times set-up (input generation, exploration
// and one warm-up pass) runs; setup_s is the median.
const setupRepeats = 5

// minRuns is the least number of timed runs, whatever --seconds says.
const minRuns = 5

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timedRun is one timed run's host cost and simulated result. Its sim
// keeps only the scalars: the slices and maps are dropped once tallied,
// so the retained heap stays flat however many runs fit the time.
type timedRun struct {
	// dur is the measured host time, cal the calibration timed just
	// before the run.
	dur, cal      time.Duration
	allocs, bytes uint64
	// inUse is the Go heap and stack memory in use at the end of the
	// run, before its garbage is collected.
	inUse uint64
	sim   sim
}

// bench is the state of one benchmark invocation.
type bench struct {
	name    string
	seed    uint64
	seconds int
	wl      workload
	// setup is each set-up's duration; warm each warm-up run's.
	setup, warm []time.Duration
	// ref holds the first pass's outcomes, the reference every later
	// run must reproduce bit-identically.
	ref               []outcome
	runs              []timedRun
	comps             map[clock.Component]uint64 // timed runs' attribution
	attempted, failed int
	problems          []string
	tr                *tracer
}

func main() {
	// The simulator runs one goroutine at a time: its threads hand the
	// CPU to each other. On one P those hand-offs are plain goroutine
	// switches, so host time reflects the simulator's own work instead
	// of cross-CPU wake-ups, and runs repeat far more steadily.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(-1)
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep, iperf-bulk or redis-kv")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 20, "host seconds of timed runs")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := setups[*name]; !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload sweep|iperf-bulk|redis-kv, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	b := &bench{name: *name, seed: *seed, seconds: *seconds, comps: make(map[clock.Component]uint64)}
	if *traced == 1 {
		b.tr = newTracer()
	}
	if err := b.prepare(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var rep report
	var err error
	if *traced == 1 {
		rep, err = b.traced(stdout)
	} else {
		b.timed()
		rep = b.endToEnd(stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range b.problems {
		fmt.Fprintf(stdout, "FAILED: %s\n", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// tally adds one run's operations to the totals; it reports whether the
// simulated result matches the reference for that run.
func (b *bench) tally(i int, o outcome) {
	b.attempted += o.attempted
	b.failed += min(o.failed, o.attempted)
	b.problems = append(b.problems, o.problems...)
	if len(b.ref) == b.wl.passLen() {
		if ref := b.ref[i%len(b.ref)]; !reflect.DeepEqual(ref.sim, o.sim) {
			b.failed++
			b.problems = append(b.problems, fmt.Sprintf("run %d: simulated result differs from the first pass", i))
		}
	}
	if len(b.problems) > 10 {
		b.problems = b.problems[:10]
	}
}

// prepare sets the workload up setupRepeats times, each set-up ending
// with one untimed warm-up pass, and keeps the last.
func (b *bench) prepare() error {
	var durs, cals []time.Duration
	for r := 0; r < setupRepeats; r++ {
		cals = append(cals, calibrate())
		start := time.Now()
		wl, err := setups[b.name](b.seed, b.tr)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", b.name, err)
		}
		b.wl = wl
		for i := 0; i < wl.passLen(); i++ {
			r0, o := b.measure(i, nil)
			b.warm = append(b.warm, r0.scaled())
			b.tally(i, o)
			if r == 0 {
				b.ref = append(b.ref, o)
			}
		}
		durs = append(durs, time.Since(start))
	}
	for i, cal := range smooth(cals) {
		b.setup = append(b.setup, scaled(durs[i], cal))
	}
	return nil
}

// timed runs the workload for the configured host time, at least
// minRuns runs and always whole passes.
func (b *bench) timed() {
	// The printed peak_rss_mb covers the timed runs only: return the
	// set-up's free memory to the OS and reset the peak to the current
	// resident set. Where clear_refs is missing, the peak includes set-up.
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	deadline := time.Now().Add(time.Duration(b.seconds) * time.Second)
	for i := 0; i < minRuns || i%b.wl.passLen() != 0 || time.Now().Before(deadline); i++ {
		b.tr.setRun(i + 1)
		r, o := b.measure(i, b.tr)
		b.tally(i, o)
		for c, cyc := range o.sim.Components {
			b.comps[c] += cyc
		}
		r.sim = o.sim
		r.sim.Batches, r.sim.Components = nil, nil
		b.runs = append(b.runs, r)
	}
	cals := make([]time.Duration, len(b.runs))
	for i, r := range b.runs {
		cals[i] = r.cal
	}
	for i, cal := range smooth(cals) {
		b.runs[i].cal = cal
	}
}

// measure performs run i and then collects its garbage, both timed. The
// collector runs nowhere else (main turns it off), so every run pays for
// exactly its own allocations, and the peak heap is the live set plus
// one run's allocations, whatever the host's load.
func (b *bench) measure(i int, tr *tracer) (timedRun, outcome) {
	var ms0, ms1 runtime.MemStats
	cal := calibrate()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	end := tr.begin("run")
	o := b.wl.run(i, tr)
	// Nothing was freed during the run, so this is its peak.
	var msPeak runtime.MemStats
	runtime.ReadMemStats(&msPeak)
	endGC := tr.begin("gc")
	runtime.GC()
	endGC()
	end()
	dur := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return timedRun{
		dur: dur, cal: cal,
		allocs: ms1.Mallocs - ms0.Mallocs, bytes: ms1.TotalAlloc - ms0.TotalAlloc,
		inUse: msPeak.HeapInuse + msPeak.StackInuse,
	}, o
}

// scaled is the run's host time at the reference speed.
func (r timedRun) scaled() time.Duration { return scaled(r.dur, r.cal) }

// endToEnd computes the end-to-end metrics of the untraced run.
func (b *bench) endToEnd(w io.Writer) report {
	var ms, rawMs, cals, allocs, mb []float64
	var hostNs, simCycles float64
	var peak uint64
	for _, r := range b.runs {
		peak = max(peak, r.inUse)
		ms = append(ms, float64(r.scaled())/1e6)
		rawMs = append(rawMs, float64(r.dur)/1e6)
		cals = append(cals, float64(r.cal)/1e6)
		allocs = append(allocs, float64(r.allocs))
		mb = append(mb, float64(r.bytes)/(1<<20))
		hostNs += float64(r.scaled())
		simCycles += float64(r.sim.Makespan)
	}
	pass := b.passSim()
	v := map[string]float64{
		"setup_s":               quantile(secs(b.setup), 0.5),
		"run_ms_p50":            quantile(ms, 0.5),
		"run_ms_p90":            quantile(ms, 0.9),
		"sim_cycles_per_host_s": simCycles / (hostNs / 1e9),
		"host_mb_per_run":       quantile(mb, 0.5),
		"allocs_per_run":        quantile(allocs, 0.5),
		"peak_heap_mb":          float64(peak) / (1 << 20),
		"sim_gbps":              clock.GbpsFor(pass.payload, pass.window),
		"sim_cycles_per_op":     float64(pass.window) / float64(pass.ops),
		"sim_batch_p50_cycles":  quantile(pass.batches, 0.5),
		"sim_batch_p99_cycles":  quantile(pass.batches, 0.99),
	}
	fmt.Fprintf(w, "workload %s seed %d: %d timed runs (%d per pass), %d set-ups\n",
		b.name, b.seed, len(b.runs), b.wl.passLen(), len(b.setup))
	m := make(map[string]metric)
	for _, em := range endToEndMetrics {
		m[em.name] = metric{v[em.name], em.unit}
		fmt.Fprintf(w, "  %-24s %14.6g %s\n", em.name, v[em.name], em.unit)
	}
	fmt.Fprintf(w, "  %-24s %14.6g %s (%d of %d operations failed)\n", "error_rate",
		float64(b.failed)/float64(max(b.attempted, 1)), "ratio", b.failed, b.attempted)
	fmt.Fprintf(w, "  %-24s %14.6g %s (VmHWM over the timed runs)\n", "peak_rss_mb", peakRSSMB(), "MB")
	fmt.Fprintf(w, "  host times at reference speed; unscaled run_ms_p50 %.4g ms, calibration p50 %.4g ms (reference %v)\n",
		quantile(rawMs, 0.5), quantile(cals, 0.5), refCalibration)
	return b.report(m)
}

func (b *bench) report(m map[string]metric) report {
	return report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// passTotals sums the simulated results of one reference pass.
type passTotals struct {
	window, ops, payload uint64
	batches              []float64
}

func (b *bench) passSim() passTotals {
	var p passTotals
	for _, o := range b.ref {
		p.window += o.sim.Window
		p.ops += o.sim.Ops
		p.payload += o.sim.Payload
		for _, c := range o.sim.Batches {
			p.batches = append(p.batches, float64(c))
		}
	}
	return p
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}

// endToEndMetrics lists the untraced run's metrics in report order.
// Two more are printed beside them but not listed. error_rate is zero on
// a correct run; the report's attempted and failed fields carry it.
// peak_rss_mb moves by whole arenas with the Go heap's layout from one
// process to the next; peak_heap_mb, the memory the runs hold, does not.
var endToEndMetrics = []layerMetric{
	{"setup_s", "s", "lower"},
	{"run_ms_p50", "ms", "lower"},
	{"run_ms_p90", "ms", "lower"},
	{"sim_cycles_per_host_s", "cycles/s", "higher"},
	{"host_mb_per_run", "MB", "lower"},
	{"allocs_per_run", "count", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"sim_gbps", "Gb/s", "higher"},
	{"sim_cycles_per_op", "cycles", "lower"},
	{"sim_batch_p50_cycles", "cycles", "lower"},
	{"sim_batch_p99_cycles", "cycles", "lower"},
}

// traceDir holds the traced run's Chrome trace file, relative to the
// working directory (the checkout root under run.sh).
const traceDir = ".bench_build"

// writeTrace stores the traced run's Chrome trace file and returns its
// path.
func (b *bench) writeTrace() (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.json", b.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := b.tr.writeChrome(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
