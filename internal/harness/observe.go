package harness

import (
	"fmt"

	"flexos/internal/core/build"
	"flexos/internal/metrics"
	"flexos/internal/trace"
)

// Observation bundles one instrumented run's full observability
// output: the cycle-attribution breakdown (from the live clock
// ledgers), the metrics snapshot (live gate/NIC/pool/supervisor
// counters), and the crossing trace for timeline export. The trace is
// bounded and may drop events under load; the attribution and
// snapshot never do — TestAttributionSurvivesSaturatedRing pins that.
type Observation struct {
	Label   string `json:"label"`
	Backend string `json:"backend"`
	VCPUs   int    `json:"vcpus"`
	// Attr conserves capacity exactly: Attr.Check() == nil.
	Attr     *metrics.Attribution `json:"attribution"`
	Snapshot *metrics.Snapshot    `json:"snapshot"`
	// Events is the retained tail of the crossing trace.
	Events []trace.Event `json:"-"`
	// TotalEvents / DroppedEvents report trace-ring pressure: Dropped
	// > 0 means the Chrome timeline is a suffix of the run, while the
	// attribution above still covers all of it.
	TotalEvents   uint64 `json:"trace_events_total"`
	DroppedEvents uint64 `json:"trace_events_dropped"`
}

// observeTraceCap bounds each observed run's crossing trace. Big
// enough for a useful timeline, small enough that a long run saturates
// it — which is fine, because nothing numeric is derived from it.
const observeTraceCap = 8192

// ObserveFor runs one instrumented, traced measurement per image of
// the named experiment (every experiment's for "all") and returns the
// observability bundles, each conservation-checked. An experiment that
// boots no image through Run cannot be observed, and naming one alone
// is an error.
func ObserveFor(exp string, o Options) ([]Observation, error) {
	exps, err := Select(exp)
	if err != nil {
		return nil, err
	}
	var out []Observation
	for _, e := range exps {
		if e.Images == nil {
			if len(exps) == 1 {
				return nil, fmt.Errorf("harness: experiment %q boots no image through Run; nothing to observe", e.Name)
			}
			continue
		}
		imgs, err := e.Images(o)
		if err != nil {
			return nil, fmt.Errorf("observe %s: %w", e.Name, err)
		}
		for _, img := range imgs {
			ob, err := observe(img)
			if err != nil {
				return nil, fmt.Errorf("observe %s %s: %w", e.Name, img.Cfg.Name, err)
			}
			out = append(out, ob)
		}
	}
	return out, nil
}

// observe runs one image traced and assembles its bundle.
func observe(img Image) (Observation, error) {
	var w *build.World
	load := img.Load
	load.TraceCap = observeTraceCap
	load.Prep = func(built *build.World) { w = built }
	r, err := Run(img.Cfg, load)
	if err != nil {
		return Observation{}, err
	}
	if err := r.Attr.Check(); err != nil {
		return Observation{}, err
	}
	return Observation{
		Label:         img.Cfg.Name,
		Backend:       img.Cfg.Backend.String(),
		VCPUs:         r.VCPUs,
		Attr:          r.Attr,
		Snapshot:      w.Server.MetricsSnapshot(),
		Events:        r.Trace.Events(),
		TotalEvents:   r.Trace.Total(),
		DroppedEvents: r.Trace.Dropped(),
	}, nil
}
