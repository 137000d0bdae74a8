package harness

import (
	"flexos/internal/core/build"
	"flexos/internal/core/explore"
	"flexos/internal/core/spec"
)

// recordRedis runs the baseline image's Redis GET workload with a call
// recorder attached to the server's sink.
func recordRedis(payloadBytes, ops int) (*spec.Recorder, *Result, error) {
	rec := spec.NewRecorder()
	r, err := Run(build.Config{Name: "autospec", Net: tcpipThread}, Load{
		App: Redis, Op: OpGET, Payload: payloadBytes, Ops: ops,
		Prep: func(w *build.World) { w.Server.Sink.Record(rec.Observe) },
	})
	return rec, r, err
}

// RecordRedisMetadata runs the Redis workload with a call recorder
// attached and returns the recorder plus the draft metadata it
// generates — the paper's §5 semi-automatic metadata generation, fed
// by a representative workload.
func RecordRedisMetadata(payloadBytes, ops int) (*spec.Recorder, string, error) {
	rec, _, err := recordRedis(payloadBytes, ops)
	if err != nil {
		return nil, "", err
	}
	return rec, rec.RenderMetadata(), nil
}

// MeasureWorkload derives the explorer's workload profile from an
// observed baseline run instead of hand-tuned rates: per-operation
// cross-library call rates from the recorder, the per-operation
// baseline cost from the virtual clock. Both cover the measured window
// only. The recorder sees the whole session (connect, the priming
// SETs, buffer setup, teardown), so the calls of the same session run
// with no measured ops, which the deterministic simulator replays call
// for call, are subtracted. The SH taxes keep their calibrated
// defaults (they come from instrumentation density, which call
// counting cannot see).
func MeasureWorkload(payloadBytes, ops int) (explore.Workload, error) {
	rec, res, err := recordRedis(payloadBytes, ops)
	if err != nil {
		return explore.Workload{}, err
	}
	session, _, err := recordRedis(payloadBytes, 0)
	if err != nil {
		return explore.Workload{}, err
	}
	w := explore.DefaultWorkload()
	w.BaseCycles = float64(res.ServerCycles) / float64(res.Ops)
	rates := make(map[[2]string]float64)
	for _, e := range rec.Edges() {
		all, outside := rec.Count(e.From, e.To, e.Fn), session.Count(e.From, e.To, e.Fn)
		if all > outside {
			rates[[2]string{e.From, e.To}] += float64(all-outside) / float64(res.Ops)
		}
	}
	w.CallRates = rates
	return w, nil
}
