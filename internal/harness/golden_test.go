package harness

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"flexos/internal/core/build"
	"flexos/internal/core/gate"
	"flexos/internal/fault"
	"flexos/internal/net"
)

// goldenTraced is one traced image of TestObservationGolden and what
// its observation must reproduce: the held events per kind, a digest
// of the event stream (every Event.String() plus the ring's Total and
// Dropped) and a digest of the server's metrics snapshot JSON.
type goldenTraced struct {
	name    string
	cfg     build.Config
	load    Load
	prep    func(*build.World)
	kinds   string
	events  string
	metrics string
}

// goldenDigest is the short hex SHA-256 the golden table pins.
func goldenDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:12])
}

// TestObservationGolden pins everything the machine's observation
// path produces, across every producer: gate crossings and the shared
// pool's buf-alloc/buf-ref/buf-release (MPK-shared, 2 vCPUs), data-path
// buf-copy events (copy data path), the stack's net-* repair events (a
// lossy link), the supervisor's fault/recover events (an injected
// fault under onfault restart), and the call edges the autospec
// recorder sees. Observation must never move a number, so any change
// to how events are produced or routed has to reproduce these digests
// exactly.
func TestObservationGolden(t *testing.T) {
	tcpip := net.Config{SocketMode: net.TCPIPThreadMode}
	iperfLoad := Load{App: Iperf, Bytes: 256 << 10, RecvBuf: 16 << 10, TraceCap: 1 << 16}
	// The SMP image's ring is small enough to overflow, so Dropped is
	// pinned too.
	smp := iperfLoad
	smp.Conns, smp.TraceCap = 2, 256
	// Over the lossy link the server is the sender (large GET
	// replies), so its own stack retransmits.
	lossy := Load{App: Redis, Op: OpGET, Payload: 8 << 10, Ops: 200, TraceCap: 1 << 16}
	cases := []goldenTraced{
		{
			name: "mpk-shared-smp2",
			cfg: build.Config{Name: "golden-smp", Compartments: build.NWOnly(),
				Backend: gate.MPKShared, Alloc: build.AllocPerCompartment, Smp: 2, Net: tcpip},
			load:    smp,
			kinds:   "buf-alloc=94 buf-ref=10 buf-release=130 crossing=22",
			events:  "4c4c19acfc770503ea093969",
			metrics: "91a1e935c7dc9ee9f533644d",
		},
		{
			name: "copy-datapath",
			cfg: build.Config{Name: "golden-copy", Compartments: build.NWOnly(),
				Backend: gate.MPKSwitched, Alloc: build.AllocPerCompartment, Net: tcpip,
				DataPath: net.DataPathCopy},
			load:    iperfLoad,
			kinds:   "buf-alloc=1 buf-copy=577 buf-ref=17 buf-release=18 crossing=46",
			events:  "e1110840ab2474a552e04c2c",
			metrics: "f2e776b75c602ee046050494",
		},
		{
			name: "lossy-link",
			cfg: build.Config{Name: "golden-lossy", Compartments: build.NWOnly(),
				Backend: gate.MPKShared, Alloc: build.AllocPerCompartment, Net: tcpip,
				Link: build.LinkSpec{Drop: 0.05, Reorder: 0.02, Corrupt: 0.02, Seed: 7}},
			load:    lossy,
			kinds:   "buf-alloc=2694 buf-release=2694 crossing=2422 net-checksum-drop=23 net-fast-rtx=73 net-rto=10",
			events:  "516e46b95795411068a7ad5a",
			metrics: "eac51b4b2f16bc09e5689008",
		},
		{
			name: "fault-restart",
			cfg: build.Config{Name: "golden-restart", Compartments: build.NWOnly(),
				Backend: gate.MPKSwitched, Alloc: build.AllocPerCompartment, Net: tcpip,
				OnFault: map[string]fault.Policy{"nw": fault.PolicyRestart}},
			load: iperfLoad,
			prep: func(w *build.World) {
				in := fault.NewInjector()
				in.Arm(fault.Injection{Lib: "netstack", Fn: "recv", After: 4,
					Kind: fault.KindMPK, Addr: 0x5000, LeakBufs: 2})
				w.Server.InjectFaults(in)
			},
			kinds:   "buf-alloc=3 buf-ref=17 buf-release=20 crossing=47 fault=1 recover=1",
			events:  "b8de672b4f402833110e68d4",
			metrics: "a44542f4d561dcf2b33bd1a2",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var w *build.World
			load := c.load
			load.Prep = func(built *build.World) {
				w = built
				if c.prep != nil {
					c.prep(built)
				}
			}
			r, err := Run(c.cfg, load)
			if err != nil {
				t.Fatal(err)
			}
			events := r.Trace.Events()
			perKind := map[string]int{}
			var stream strings.Builder
			for _, e := range events {
				perKind[e.Kind]++
				stream.WriteString(e.String())
				stream.WriteByte('\n')
			}
			fmt.Fprintf(&stream, "total %d dropped %d\n", r.Trace.Total(), r.Trace.Dropped())
			kinds := make([]string, 0, len(perKind))
			for k, n := range perKind {
				kinds = append(kinds, fmt.Sprintf("%s=%d", k, n))
			}
			sort.Strings(kinds)
			snap, err := json.Marshal(w.Server.MetricsSnapshot())
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(kinds, " "); got != c.kinds {
				t.Errorf("events per kind:\n got %s\nwant %s", got, c.kinds)
			}
			if got := goldenDigest([]byte(stream.String())); got != c.events {
				t.Errorf("event stream digest %s, want %s", got, c.events)
			}
			if got := goldenDigest(snap); got != c.metrics {
				t.Errorf("metrics snapshot digest %s, want %s", got, c.metrics)
			}
		})
	}
	t.Run("autospec-recorder", func(t *testing.T) {
		rec, _, err := RecordRedisMetadata(50, 100)
		if err != nil {
			t.Fatal(err)
		}
		var edges strings.Builder
		var calls uint64
		for _, e := range rec.Edges() {
			n := rec.Count(e.From, e.To, e.Fn)
			calls += n
			fmt.Fprintf(&edges, "%s %s %s %d\n", e.From, e.To, e.Fn, n)
		}
		got := fmt.Sprintf("%d edges %d calls %s", len(rec.Edges()), calls, goldenDigest([]byte(edges.String())))
		if want := "20 edges 734 calls 34bbe06b6a3d0f71370d1499"; got != want {
			t.Errorf("recorded call edges: got %s, want %s", got, want)
		}
	})
}
