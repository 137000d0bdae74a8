package net

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
	"unsafe"

	"flexos/internal/mem"
	"flexos/internal/sched"
)

// frameConfigs are the tx paths a reused frame can take: handed to the
// NIC per frame, queued on a doorbell ring and delivered as an rx
// batch, and a deep ring polled
// in short budgets, so that the peer's replies run this stack's input
// while the rest of one of its batches is still being delivered.
var frameConfigs = []struct {
	name string
	cfg  Config
}{
	{"per-frame", Config{}},
	{"doorbell", Config{TxBatch: 4, RxBudget: 4}},
	{"deep-ring", Config{TxBatch: 4, RxBudget: 2}},
}

// checkFrameReuse asserts the reuse rule at a quiescent point of st (no
// transmit of it in flight): no buffer on the free list is still
// referenced by a socket's retransmission queue or a tx ring, and none
// is on the free list twice.
func checkFrameReuse(t *testing.T, st *Stack, where string) {
	t.Helper()
	if st.txDepth != 0 {
		t.Errorf("%s: txDepth %d at a quiescent point", where, st.txDepth)
	}
	free := make(map[*byte]bool, len(st.frames))
	for _, f := range st.frames {
		p := unsafe.SliceData(f)
		if free[p] {
			t.Errorf("%s: frame %p on the free list twice", where, p)
		}
		free[p] = true
	}
	for _, s := range st.conns {
		for _, r := range s.rtx {
			if free[unsafe.SliceData(r.frame)] {
				t.Errorf("%s: free frame still in the rtx queue of port %d (seq %d)", where, s.localPort, r.seq)
			}
		}
	}
	for q, ring := range st.txqs {
		for _, f := range ring {
			if free[unsafe.SliceData(f)] {
				t.Errorf("%s: free frame still on tx ring %d", where, q)
			}
		}
	}
}

// TestFrameReuseSafety runs transfers over a wire that duplicates,
// reorders and corrupts frames in both directions, on the shared data
// path (so every rx buffer and tx mbuf is a pool buffer). Delivery must
// stay byte-exact with zero pool leaks, the reuse rule must hold
// whenever either end's thread runs, and released frames must in fact
// come back for reuse.
func TestFrameReuseSafety(t *testing.T) {
	for _, tc := range frameConfigs {
		t.Run(tc.name, func(t *testing.T) {
			const port, total, chunk = 5001, 200_000, 16 << 10
			s, server, client, w := world(t, tc.cfg)
			for _, m := range []*machine{server, client} {
				m.env.Pool = mem.NewSharedPool(m.heap, nil)
			}
			w.ArmBoth(LinkFaults{Seed: 11, Dup: 0.05, Reorder: 0.05, Corrupt: 0.02})
			l, err := server.stack.Listen(port, 4)
			if err != nil {
				t.Fatal(err)
			}
			var got, want []byte
			s.Spawn("server", server.cpu, func(th *sched.Thread) {
				conn, err := l.Accept(th)
				if err != nil {
					t.Error(err)
					return
				}
				buf := server.buf(t, 4096, 0)
				for {
					n, err := conn.Recv(th, buf, 4096)
					checkFrameReuse(t, server.stack, "server after recv")
					checkFrameReuse(t, client.stack, "client while server runs")
					if err == io.EOF {
						return
					}
					if err != nil {
						t.Error(err)
						return
					}
					b, _ := server.arena.Bytes(buf, n)
					got = append(got, b...)
				}
			})
			s.Spawn("client", client.cpu, func(th *sched.Thread) {
				conn, err := client.stack.Connect(th, server.stack.IP(), port)
				if err != nil {
					t.Error(err)
					return
				}
				src := client.buf(t, total, 7)
				b, _ := client.arena.Bytes(src, total)
				want = bytes.Clone(b)
				for off := 0; off < total; off += chunk {
					n := min(chunk, total-off)
					if _, err := conn.Send(th, src+mem.Addr(off), n); err != nil {
						t.Error(err)
						return
					}
					checkFrameReuse(t, client.stack, "client after send")
					checkFrameReuse(t, server.stack, "server while client runs")
				}
				_ = conn.Close(th)
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("delivered %d bytes, want %d byte-exact", len(got), len(want))
			}
			if w.Duplicated == 0 || w.Reordered == 0 || w.Corrupted == 0 {
				t.Fatalf("wire faults not exercised: dup %d reorder %d corrupt %d",
					w.Duplicated, w.Reordered, w.Corrupted)
			}
			for _, m := range []*machine{server, client} {
				checkFrameReuse(t, m.stack, "after the run")
				if n, refs := m.env.Pool.Outstanding(), m.env.Pool.OutstandingRefs(); n != 0 || refs != 0 {
					t.Errorf("%s pool leaked %d buffers (%d refs)", m.stack.IP(), n, refs)
				}
				if len(m.stack.frames) == 0 {
					t.Errorf("%s: no frame came back for reuse", m.stack.IP())
				}
			}
		})
	}
}

// TestFrameSettlesAfterTransmit pins the settle rule on live
// transmits: a frame released while one of the stack's transmits is in
// flight (here from inside the wire, which runs within it) stays out
// of reuse until the outermost transmit or kick returns with the tx
// rings empty, and then comes back. The armed wire copies what it
// delivers, so the in-flight frames are not at risk here; the rule is.
func TestFrameSettlesAfterTransmit(t *testing.T) {
	for _, tc := range frameConfigs {
		t.Run(tc.name, func(t *testing.T) {
			const port = 5001
			s, server, client, w := world(t, tc.cfg)
			st := client.stack
			var held []byte // released inside the wire
			// Connect(server, client): BtoA carries the client's frames.
			w.Arm(BtoA, LinkFaults{DropFn: func(frame []byte) bool {
				if held != nil || len(frame) == HdrLen {
					return false
				}
				held = st.newFrame(HdrLen)
				st.releaseFrame(held)
				if f := st.newFrame(HdrLen); unsafe.SliceData(f) == unsafe.SliceData(held) {
					t.Error("frame reused while a transmit is in flight")
				}
				return false
			}})
			l, err := server.stack.Listen(port, 4)
			if err != nil {
				t.Fatal(err)
			}
			s.Spawn("server", server.cpu, func(th *sched.Thread) {
				conn, err := l.Accept(th)
				if err != nil {
					t.Error(err)
					return
				}
				buf := server.buf(t, 4096, 0)
				for {
					if _, err := conn.Recv(th, buf, 4096); err != nil {
						return
					}
				}
			})
			s.Spawn("client", client.cpu, func(th *sched.Thread) {
				conn, err := st.Connect(th, server.stack.IP(), port)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := conn.Send(th, client.buf(t, 3000, 1), 3000); err != nil {
					t.Error(err)
				}
				_ = conn.Close(th)
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if held == nil {
				t.Fatal("no data frame crossed the wire")
			}
			back := false
			for _, f := range st.frames {
				back = back || unsafe.SliceData(f) == unsafe.SliceData(held)
			}
			if !back {
				t.Error("frame released during a transmit never came back for reuse")
			}
		})
	}
}

// TestSegmentAllocs pins the allocation-free segment path: once warm,
// a 64 KiB Send and the peer's receive of it — data frames, ACK
// frames, rx buffers, timers, the drain — make fewer than 0.2 heap
// objects per 1,460-byte segment, counted over both ends. What remains
// comes per Send call or per blocking wait, not per segment; one
// object per segment anywhere on the path reads about 1.
func TestSegmentAllocs(t *testing.T) {
	const maxPerSeg = 0.2
	for _, tc := range frameConfigs {
		t.Run(tc.name, func(t *testing.T) {
			const port, chunk, warm, measured = 5001, 64 << 10, 8, 16
			s, server, client, _ := world(t, tc.cfg)
			l, err := server.stack.Listen(port, 4)
			if err != nil {
				t.Fatal(err)
			}
			s.Spawn("server", server.cpu, func(th *sched.Thread) {
				conn, err := l.Accept(th)
				if err != nil {
					t.Error(err)
					return
				}
				buf := server.buf(t, chunk, 0)
				for {
					if _, err := conn.Recv(th, buf, chunk); err != nil {
						if err != io.EOF {
							t.Error(err)
						}
						return
					}
				}
			})
			var mallocs uint64
			s.Spawn("client", client.cpu, func(th *sched.Thread) {
				conn, err := client.stack.Connect(th, server.stack.IP(), port)
				if err != nil {
					t.Error(err)
					return
				}
				src := client.buf(t, chunk, 3)
				send := func() {
					if _, err := conn.Send(th, src, chunk); err != nil {
						t.Error(err)
					}
				}
				for i := 0; i < warm; i++ {
					send()
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < measured; i++ {
					send()
				}
				runtime.ReadMemStats(&after)
				mallocs = after.Mallocs - before.Mallocs
				_ = conn.Close(th)
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			segs := float64(measured*chunk) / MSS
			perSeg := float64(mallocs) / segs
			t.Logf("%d heap objects over %.0f segments: %.3f per segment", mallocs, segs, perSeg)
			if perSeg >= maxPerSeg {
				t.Errorf("%.2f heap objects per segment, want < %.1f", perSeg, maxPerSeg)
			}
		})
	}
}

// duplexRun is one full-duplex transfer, each end sending total bytes
// while it receives the other's, over a wire whose server-to-client
// direction drops, reorders and duplicates. The client's frames cross
// the clean direction as the very slices it built, so a frame reused
// while one of its batches is still being delivered would reach the
// server altered. It returns what the run determines: both stacks'
// counters, both cycle counts and the wire's fault counters.
func duplexRun(t *testing.T, cfg Config, seed uint64, reuse bool) string {
	t.Helper()
	const port, total = 5001, 120_000
	s, server, client, w := world(t, cfg)
	w.Arm(AtoB, LinkFaults{Seed: seed, Drop: 0.03, Reorder: 0.1, Dup: 0.05})
	if !reuse {
		// A transmit that never returned (as after a trap) keeps every
		// frame out of reuse.
		server.stack.txDepth, client.stack.txDepth = 1, 1
	}
	l, err := server.stack.Listen(port, 4)
	if err != nil {
		t.Fatal(err)
	}
	sent := map[*machine][]byte{}
	got := map[*machine][]byte{}
	duplex := func(th *sched.Thread, m *machine, conn *Socket) {
		src := m.buf(t, total, byte(m.stack.IP()))
		b, _ := m.arena.Bytes(src, total)
		sent[m] = bytes.Clone(b)
		s.Spawn("send", m.cpu, func(th *sched.Thread) {
			if _, err := conn.Send(th, src, total); err != nil {
				t.Error(err)
			}
			_ = conn.Close(th)
		})
		buf := m.buf(t, 8192, 0)
		for {
			n, err := conn.Recv(th, buf, 8192)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			b, _ := m.arena.Bytes(buf, n)
			got[m] = append(got[m], b...)
		}
	}
	s.Spawn("server", server.cpu, func(th *sched.Thread) {
		conn, err := l.Accept(th)
		if err != nil {
			t.Error(err)
			return
		}
		duplex(th, server, conn)
	})
	s.Spawn("client", client.cpu, func(th *sched.Thread) {
		conn, err := client.stack.Connect(th, server.stack.IP(), port)
		if err != nil {
			t.Error(err)
			return
		}
		duplex(th, client, conn)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[server], sent[client]) || !bytes.Equal(got[client], sent[server]) {
		t.Errorf("reuse %v: delivery not byte-exact (server got %d, client got %d of %d)",
			reuse, len(got[server]), len(got[client]), total)
	}
	return fmt.Sprintf("server %+v\nclient %+v\ncycles %d/%d wire drop %d reorder %d dup %d",
		server.stack.Stats(), client.stack.Stats(), server.cpu.Cycles(), client.cpu.Cycles(),
		w.Dropped, w.Reordered, w.Duplicated)
}

// TestFrameReuseInvisible: reusing frames must not change a single
// simulated number. Full-duplex transfers with retransmissions, on each
// tx path, run once with reuse and once with every frame kept out of
// reuse, and must agree on every counter and cycle.
func TestFrameReuseInvisible(t *testing.T) {
	for _, tc := range frameConfigs {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				on, off := duplexRun(t, tc.cfg, seed, true), duplexRun(t, tc.cfg, seed, false)
				if on != off {
					t.Fatalf("seed %d: frame reuse changed the run:\nwith reuse:\n%s\nwithout:\n%s", seed, on, off)
				}
			}
		})
	}
}
