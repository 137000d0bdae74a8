package harness

import (
	"fmt"

	"flexos/internal/core/build"
	"flexos/internal/core/gate"
)

// --- Chaosnet: goodput retention under adversarial link faults --------
//
// The robustness counterpart of Fig. 3: the same iperf transfer over
// the same isolation backends, but across a wire that drops frames at
// a swept rate. A transport with only a fixed retransmission timer
// pays one multi-RTO stall per loss; the hardened stack's adaptive
// RTO, fast retransmit and reassembly queue turn most losses into a
// dup-ACK round trip, so goodput degrades gracefully. Everything runs
// in virtual time on a seeded fault PRNG — the "chaos" replays
// bit-identically.

// ChaosnetPoint is one (loss rate, goodput) sample.
type ChaosnetPoint struct {
	// Loss is the per-frame, per-direction drop probability.
	Loss float64
	// Gbps is the achieved server-side goodput.
	Gbps float64
	// RetentionPct is goodput as a percentage of the same backend's
	// lossless run (100 at loss 0 by construction).
	RetentionPct float64
	// RecoveryCycles is the extra virtual time the lossy transfer took
	// over the lossless one — the total cost of detecting and repairing
	// every loss (0 at loss 0).
	RecoveryCycles uint64
	// Transport repair counters for the run.
	Retransmits     uint64
	FastRetransmits uint64
	OOOQueued       uint64
	// WireDropped is what the fault model actually removed.
	WireDropped uint64
}

// ChaosnetSeries is one backend's loss sweep.
type ChaosnetSeries struct {
	Label   string
	Backend gate.Backend
	Points  []ChaosnetPoint
}

// ChaosnetResult is the loss × backend sweep.
type ChaosnetResult struct {
	Losses []float64
	Series []ChaosnetSeries
}

// ChaosnetLosses is the swept per-direction frame-drop rates.
func ChaosnetLosses(quick bool) []float64 {
	if quick {
		return []float64{0, 0.01}
	}
	return []float64{0, 0.001, 0.01, 0.05}
}

// chaosnetConfigs are the SMP sweep's images — the no-gate baseline
// and the two backends whose crossing costs bracket the rest — over the
// tcpip thread. quick keeps the MPK-shared image, which carries the
// gate.
func chaosnetConfigs(quick bool) []build.Config {
	configs := smpConfigs()
	for i := range configs {
		configs[i].Net = tcpipThread
	}
	if quick {
		return configs[1:2]
	}
	return configs
}

// chaosnetSeed keeps every run of the sweep on one fault schedule.
const chaosnetSeed = 42

// chaosnetLoad is the transfer each sweep point runs.
var chaosnetLoad = Load{App: Iperf, Bytes: 2 << 20, RecvBuf: 16 << 10}

// withLoss is cfg over a wire that drops loss of the frames in each
// direction, on the sweep's fault schedule.
func withLoss(cfg build.Config, loss float64) build.Config {
	cfg.Link.Drop, cfg.Link.Seed = loss, chaosnetSeed
	return cfg
}

// Chaosnet runs the loss × backend sweep. quick thins it for tests.
func Chaosnet(quick bool) (*ChaosnetResult, error) {
	losses := ChaosnetLosses(quick)
	out := &ChaosnetResult{Losses: losses}
	for _, cfg := range chaosnetConfigs(quick) {
		s := ChaosnetSeries{Label: cfg.Name, Backend: cfg.Backend}
		var baseGbps float64
		var baseCycles uint64
		for _, loss := range losses {
			r, err := Run(withLoss(cfg, loss), chaosnetLoad)
			if err != nil {
				return nil, fmt.Errorf("chaosnet %s @%.3f: %w", cfg.Name, loss, err)
			}
			p := ChaosnetPoint{
				Loss:            loss,
				Gbps:            r.Gbps,
				Retransmits:     r.Net.Retransmits,
				FastRetransmits: r.Net.FastRetransmits,
				OOOQueued:       r.Net.OOOQueued,
				WireDropped:     r.Wire.Dropped,
			}
			if loss == 0 {
				baseGbps, baseCycles = r.Gbps, r.ServerCycles
			}
			if baseGbps > 0 {
				p.RetentionPct = r.Gbps / baseGbps * 100
			}
			if r.ServerCycles > baseCycles {
				p.RecoveryCycles = r.ServerCycles - baseCycles
			}
			s.Points = append(s.Points, p)
		}
		out.Series = append(out.Series, s)
	}
	return out, nil
}

// chaosnetImages are the swept images at the sweep's heaviest loss.
func chaosnetImages(o Options) ([]Image, error) {
	losses := ChaosnetLosses(o.Quick)
	var out []Image
	for _, cfg := range chaosnetConfigs(o.Quick) {
		out = append(out, Image{withLoss(cfg, losses[len(losses)-1]), chaosnetLoad})
	}
	return out, nil
}
