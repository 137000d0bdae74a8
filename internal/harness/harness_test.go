package harness

import (
	"math"
	"strings"
	"testing"

	"flexos/internal/core/build"
	"flexos/internal/core/explore"
	"flexos/internal/core/gate"
	"flexos/internal/core/spec"
)

// The harness tests double as the acceptance suite for the paper's
// qualitative claims: they assert the *shape* of every figure.

func TestCtxSwitchMatchesPaper(t *testing.T) {
	r, err := CtxSwitch()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.CNanos-r.PaperCNanos) > 2 {
		t.Errorf("C switch %.1f ns, paper %.1f", r.CNanos, r.PaperCNanos)
	}
	if math.Abs(r.VerifiedNanos-r.PaperVNanos) > 2 {
		t.Errorf("verified switch %.1f ns, paper %.1f", r.VerifiedNanos, r.PaperVNanos)
	}
	if out := FormatCtxSwitch(r); !strings.Contains(out, "218.6") {
		t.Error("format output missing value")
	}
}

func TestFig3Shape(t *testing.T) {
	r, err := Fig3(true)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]Fig3Point{}
	for _, s := range r.Series {
		series[s.Label] = s.Points
	}
	base := series["KVM Baseline"]
	cheri := series["CHERI (KVM)"]
	sha := series["MPK-Sha. (KVM)"]
	sw := series["MPK-Sw. (KVM)"]
	xen := series["Xen Baseline"]
	vm := series["VM RPC (Xen)"]
	if base == nil || cheri == nil || sha == nil || sw == nil || xen == nil || vm == nil {
		t.Fatalf("missing series: %v", r.Series)
	}
	small, large := 0, len(base)-1

	// Small buffers: MPK 2-3x slower; switched below shared.
	if ratio := base[small].Mbps / sha[small].Mbps; ratio < 1.4 || ratio > 3.5 {
		t.Errorf("MPK shared small-buffer slowdown = %.2fx, want ~2x", ratio)
	}
	if ratio := base[small].Mbps / sw[small].Mbps; ratio < 2.0 || ratio > 4.0 {
		t.Errorf("MPK switched small-buffer slowdown = %.2fx, want ~3x", ratio)
	}
	if sha[small].Mbps < sw[small].Mbps {
		t.Error("shared-stack gate should beat switched-stack")
	}
	// The capability backend (extension) sits between the baseline and
	// MPK shared at small buffers (cheaper crossings) and converges.
	if cheri[small].Mbps < sha[small].Mbps || cheri[small].Mbps > base[small].Mbps {
		t.Errorf("CHERI at %dB = %.1f, want between MPK-shared (%.1f) and baseline (%.1f)",
			base[small].RecvBuf, cheri[small].Mbps, sha[small].Mbps, base[small].Mbps)
	}
	// Large buffers: MPK catches the baseline (within ~5%).
	if ratio := base[large].Mbps / sha[large].Mbps; ratio > 1.05 {
		t.Errorf("MPK shared did not catch up: %.2fx at %dB", ratio, base[large].RecvBuf)
	}
	// Xen baseline below KVM everywhere.
	for i := range base {
		if xen[i].Mbps >= base[i].Mbps {
			t.Errorf("Xen >= KVM at %dB", base[i].RecvBuf)
		}
	}
	// VM RPC: catastrophic at small buffers, near Xen baseline at the
	// largest.
	if ratio := xen[small].Mbps / vm[small].Mbps; ratio < 5 {
		t.Errorf("VM RPC small-buffer slowdown = %.2fx, want >>1", ratio)
	}
	if ratio := xen[large].Mbps / vm[large].Mbps; ratio > 1.15 {
		t.Errorf("VM RPC did not converge: %.2fx at %dB", ratio, base[large].RecvBuf)
	}
	if !strings.Contains(FormatFig3(r), "KVM Baseline") {
		t.Error("format output broken")
	}
}

func TestTable1Shape(t *testing.T) {
	r, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	slow := map[string]float64{}
	for _, row := range r.Rows {
		slow[row.Component] = r.BaselineGbps / row.COnlyGbps
	}
	// Paper's ordering: sched ~1%, netstack ~6%, rest ~18%, libc
	// ~2.3x, entire worst.
	if slow["Scheduler"] > 1.03 {
		t.Errorf("sched SH slowdown = %.2fx, want ~1.01x", slow["Scheduler"])
	}
	if slow["Network stack"] < 1.01 || slow["Network stack"] > 1.2 {
		t.Errorf("netstack SH slowdown = %.2fx, want ~1.06x", slow["Network stack"])
	}
	if slow["LibC"] < 1.8 || slow["LibC"] > 3.2 {
		t.Errorf("libc SH slowdown = %.2fx, want ~2.3x", slow["LibC"])
	}
	if slow["Entire system"] < slow["LibC"] {
		t.Errorf("entire (%.2fx) must exceed libc (%.2fx)", slow["Entire system"], slow["LibC"])
	}
	order := []string{"Scheduler", "Network stack", "Rest of the system", "LibC", "Entire system"}
	for i := 1; i < len(order); i++ {
		if slow[order[i]] < slow[order[i-1]] {
			t.Errorf("ordering broken: %s (%.2fx) < %s (%.2fx)",
				order[i], slow[order[i]], order[i-1], slow[order[i-1]])
		}
	}
	if !strings.Contains(FormatTable1(r), "LibC") {
		t.Error("format output broken")
	}
}

func TestFig4Shape(t *testing.T) {
	r, err := Fig4(160)
	if err != nil {
		t.Fatal(err)
	}
	get := func(cfg string, op RedisOp, payload int) float64 {
		for _, c := range r.Cells {
			if c.Config == cfg && c.Op == op && c.Payload == payload {
				return c.KReqS
			}
		}
		t.Fatalf("missing cell %s/%s/%d", cfg, op, payload)
		return 0
	}
	for _, payload := range Fig4Payloads {
		base := get("No SH", OpSET, payload)
		global := get("SH global alloc", OpSET, payload)
		local := get("SH local alloc", OpSET, payload)
		verified := get("Verified Sched", OpSET, payload)
		// Global allocator pays more than local (the Fig. 4 claim).
		if global >= local {
			t.Errorf("%dB: global alloc (%f) should be slower than local (%f)", payload, global, local)
		}
		if local >= base {
			t.Errorf("%dB: SH local (%f) should be slower than baseline (%f)", payload, local, base)
		}
		// Verified scheduler within 6% of baseline (paper's claim).
		if base/verified > 1.06 {
			t.Errorf("%dB: verified sched overhead %.2fx, want <= 1.06x", payload, base/verified)
		}
	}
	if !strings.Contains(FormatFig4(r), "SH global alloc") {
		t.Error("format output broken")
	}
}

func TestFig5Shape(t *testing.T) {
	r, err := Fig5(160)
	if err != nil {
		t.Fatal(err)
	}
	get := func(model, stack string, payload int) float64 {
		for _, c := range r.Cells {
			if c.Model == model && c.Stack == stack && c.Payload == payload {
				return c.KReqS
			}
		}
		t.Fatalf("missing cell %s/%s/%d", model, stack, payload)
		return 0
	}
	for _, payload := range Fig4Payloads {
		base := get("No Isol.", "-", payload)
		nwSh := get("NW-only", "Sh.", payload)
		nwSw := get("NW-only", "Sw.", payload)
		threeSh := get("NW/Sched/Rest", "Sh.", payload)
		threeSw := get("NW/Sched/Rest", "Sw.", payload)
		mergedSh := get("NW+Sched/Rest", "Sh.", payload)

		// Isolation costs; more compartments cost more; switched
		// costs more than shared.
		if !(base > nwSh && nwSh > threeSh) {
			t.Errorf("%dB: ordering broken: base %f, nw %f, three %f", payload, base, nwSh, threeSh)
		}
		if nwSw >= nwSh || threeSw >= threeSh {
			t.Errorf("%dB: switched should cost more than shared", payload)
		}
		// The headline claim: merging NW+Sched does NOT help, because
		// semaphores live in LibC.
		if mergedSh > threeSh*1.02 {
			t.Errorf("%dB: merging nw+sched helped (%f vs %f), contradicting the paper", payload, mergedSh, threeSh)
		}
	}
	// Isolation overhead drops as the request size increases.
	rel := func(payload int) float64 {
		return get("No Isol.", "-", payload) / get("NW/Sched/Rest", "Sw.", payload)
	}
	if rel(500) >= rel(5) {
		t.Errorf("overhead did not drop with payload size: %.3f vs %.3f", rel(500), rel(5))
	}
	if !strings.Contains(FormatFig5(r), "NW-only") {
		t.Error("format output broken")
	}
}

func TestEstimatorOrderingMatchesMeasurement(t *testing.T) {
	// The explorer ranks candidates by estimated cost; running the
	// actual images must produce the same ordering, or the paper's
	// automated search would pick wrong points.
	libs := specDefaultImage(t)
	w := explore.DefaultWorkload()
	cands, err := explore.Explore(libs, gate.MPKShared, w)
	if err != nil {
		t.Fatal(err)
	}
	front := explore.ParetoFront(cands)
	if len(front) < 2 {
		t.Fatalf("front too small: %d", len(front))
	}
	ms, err := MeasureCandidates(front, OpGET, 50, 160)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Candidate.EstCycles > ms[i-1].Candidate.EstCycles &&
			ms[i].KReqPerSec > ms[i-1].KReqPerSec*1.02 {
			t.Errorf("estimator ordering violated: est %.0f > %.0f but measured %.1f > %.1f kreq/s",
				ms[i].Candidate.EstCycles, ms[i-1].Candidate.EstCycles,
				ms[i].KReqPerSec, ms[i-1].KReqPerSec)
		}
	}
}

func TestCandidateConfigRejectsUnknownLibraries(t *testing.T) {
	libs, err := spec.Parse("library ghost {\n[Memory access] Read(Own); Write(Own)\n[Call] -\n}")
	if err != nil {
		t.Fatal(err)
	}
	cands, err := explore.Explore(libs, gate.MPKShared, explore.DefaultWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CandidateConfig(cands[0]); err == nil {
		t.Fatal("unknown library accepted")
	}
}

func specDefaultImage(t *testing.T) []*spec.Library {
	t.Helper()
	return spec.DefaultImage()
}

func TestRunIperfValidatesTransfer(t *testing.T) {
	if _, err := Run(build.Config{Backend: gate.Backend(99)}, Load{App: Iperf, Bytes: 1000, RecvBuf: 100}); err == nil {
		t.Fatal("bad backend accepted")
	}
}

func TestRunRedisUnknownOp(t *testing.T) {
	if _, err := Run(build.Config{}, Load{App: Redis, Op: RedisOp("BOGUS"), Payload: 5, Ops: 8}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// TestRunHonorsSocketMode pins that Run boots the socket mode the
// config names: two images differing only in their socket-mode
// directive must spend different server cycles on the same requests.
func TestRunHonorsSocketMode(t *testing.T) {
	const image = "backend mpk-switched\ncompartment nw netstack\n" +
		"compartment core sched alloc libc app rest\n"
	cycles := map[string]uint64{}
	for _, mode := range []string{"direct", "tcpip-thread"} {
		cfg, err := build.ParseConfig(image + "socket-mode " + mode + "\n")
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(cfg, Load{App: Redis, Op: OpGET, Payload: 50, Ops: 64})
		if err != nil {
			t.Fatal(err)
		}
		cycles[mode] = r.ServerCycles
	}
	if cycles["direct"] == cycles["tcpip-thread"] {
		t.Fatalf("socket mode ignored: both modes spent %d server cycles", cycles["direct"])
	}
}

func TestRecordRedisMetadata(t *testing.T) {
	rec, rendered, err := RecordRedisMetadata(50, 64)
	if err != nil {
		t.Fatal(err)
	}
	// The observed call graph must contain the architecture's key
	// edges: app->libc->netstack for data, netstack->libc semaphores,
	// libc->sched wait queues.
	for _, e := range [][3]string{
		{"app", "libc", "recv"},
		{"libc", "netstack", "recv"},
		{"netstack", "libc", "sem_up"},
		{"libc", "sched", "wake"},
	} {
		if rec.Count(e[0], e[1], e[2]) == 0 {
			t.Errorf("edge %v not observed", e)
		}
	}
	libs, err := spec.Parse(rendered)
	if err != nil {
		t.Fatalf("rendered metadata does not parse: %v", err)
	}
	if spec.HasErrors(spec.LintAll(libs)) {
		t.Fatalf("rendered metadata has lint errors")
	}
}

func TestMeasureWorkload(t *testing.T) {
	w, err := MeasureWorkload(50, 64)
	if err != nil {
		t.Fatal(err)
	}
	if w.BaseCycles <= 0 {
		t.Fatalf("BaseCycles = %f", w.BaseCycles)
	}
	// The measured rates must include the architecture's key pairs.
	for _, pair := range [][2]string{{"app", "libc"}, {"libc", "netstack"}, {"netstack", "libc"}} {
		if w.CallRates[pair] <= 0 {
			t.Errorf("no measured rate for %v", pair)
		}
	}
	// Exploring with the measured workload preserves the baseline
	// candidate's identity as cheapest among equal-security points.
	cands, err := explore.Explore(spec.DefaultImage(), gate.MPKShared, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 16 {
		t.Fatalf("candidates = %d", len(cands))
	}
	var unhardened *explore.Candidate
	for _, c := range cands {
		if c.HardenedLibs == 0 {
			unhardened = c
		}
	}
	for _, c := range cands {
		if c.HardenedLibs > 0 && c.EstCycles < unhardened.EstCycles {
			t.Errorf("hardened candidate cheaper than baseline under measured workload")
			break
		}
	}
}
