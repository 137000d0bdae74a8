package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// maxSpans bounds the spans kept for the Chrome trace file; layer
// statistics keep counting past it.
const maxSpans = 100_000

// span is one recorded interval. Spans of one run share its run id; tid
// 1 holds the nested spans, higher tids the overlapping iperf streams.
type span struct {
	name       string
	run        int
	tid        int
	start, end time.Duration
}

// layerStat aggregates the spans of one name. Async spans overlap their
// siblings, so they have no self time.
type layerStat struct {
	count int
	total time.Duration
	self  time.Duration
	async bool
	durs  []time.Duration
}

// openSpan is a nested span still running; child sums the durations
// of its direct children, so self time is duration minus child.
type openSpan struct {
	start time.Duration
	child time.Duration
}

// tracer keeps the traced run's spans in memory. A nil *tracer is the
// untraced benchmark: every method is a no-op.
type tracer struct {
	t0      time.Time
	run     int
	stack   []openSpan
	spans   []span
	dropped int
	layers  map[string]*layerStat
	// boot* are Go heap deltas across build.NewWorld, one per boot.
	bootAllocs, bootBytes []uint64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), layers: make(map[string]*layerStat)}
}

var noop = func() {}

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// setRun sets the run id the following spans belong to (0 = set-up).
func (t *tracer) setRun(id int) {
	if t != nil {
		t.run = id
	}
}

// begin opens a nested span and returns the function that closes it.
// Spans must close in reverse order of opening.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return noop
	}
	t.stack = append(t.stack, openSpan{start: t.now()})
	return func() {
		end := t.now()
		top := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		dur := end - top.start
		if n := len(t.stack); n > 0 {
			t.stack[n-1].child += dur
		}
		t.record(span{name: name, run: t.run, tid: 1, start: top.start, end: end}, dur-top.child)
	}
}

// async opens a span that may overlap its siblings (one iperf stream
// among several interleaved on the simulated scheduler). It gets its own
// track and stays out of the self-time accounting.
func (t *tracer) async(name string, track int) func() {
	if t == nil {
		return noop
	}
	start := t.now()
	run := t.run
	return func() {
		t.record(span{name: name, run: run, tid: 2 + track, start: start, end: t.now()}, -1)
	}
}

// record stores a closed span; self < 0 marks an async span.
func (t *tracer) record(s span, self time.Duration) {
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	st := t.layers[s.name]
	if st == nil {
		st = &layerStat{}
		t.layers[s.name] = st
	}
	dur := s.end - s.start
	st.count++
	st.total += dur
	if self >= 0 {
		st.self += self
	} else {
		st.async = true
	}
	st.durs = append(st.durs, dur)
}

// measureBoot wraps one boot: a span plus the Go heap it allocates.
func (t *tracer) measureBoot(boot func()) {
	if t == nil {
		boot()
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	end := t.begin("boot")
	boot()
	end()
	runtime.ReadMemStats(&after)
	t.bootAllocs = append(t.bootAllocs, after.Mallocs-before.Mallocs)
	t.bootBytes = append(t.bootBytes, after.TotalAlloc-before.TotalAlloc)
}

// medianMs is the median duration of the named spans, in ms (0 if the
// workload never opened one).
func (t *tracer) medianMs(name string) float64 {
	st := t.layers[name]
	if st == nil {
		return 0
	}
	return quantile(durationsMs(st.durs), 0.5)
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]int{"run": s.run},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       map[string]int{"dropped_spans": t.dropped},
	})
}

// writeTable prints the per-layer span table: count, total and self time.
func (t *tracer) writeTable(w io.Writer) {
	names := make([]string, 0, len(t.layers))
	for n := range t.layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return t.layers[names[i]].total > t.layers[names[j]].total })
	fmt.Fprintf(w, "%-14s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		st := t.layers[n]
		self := fmt.Sprintf("%12.1f", float64(st.self)/1e6)
		if st.async {
			self = fmt.Sprintf("%12s", "-")
		}
		fmt.Fprintf(w, "%-14s %9d %12.1f %s\n", n, st.count, float64(st.total)/1e6, self)
	}
}
