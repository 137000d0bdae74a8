package net

import (
	"bytes"
	"io"
	"testing"

	"flexos/internal/sched"
)

// TestCleanWireSharesNoBytes pins the contract that lets a clean wire
// hand the sender's frame to the peer without copying it: the peer
// copies the frame into its own rx buffer and neither keeps nor writes
// the delivered slice. The data segment stays in the sender's
// retransmission queue (the server's ACKs are dropped on the other,
// armed, direction), so the test can inspect the very slice that
// crossed and then overwrite it before the server reads its socket.
func TestCleanWireSharesNoBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"per-frame", Config{}},
		{"doorbell", Config{TxBatch: 4, RxBudget: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, server, client, w := world(t, tc.cfg)
			const port = 5001
			msg := []byte("the wire owns no bytes of this segment")
			dropAcks := false
			// Connect(server, client): AtoB carries the server's frames.
			// Only that direction is armed; client→server stays clean.
			w.Arm(AtoB, LinkFaults{DropFn: func([]byte) bool { return dropAcks }})
			l, err := server.stack.Listen(port, 4)
			if err != nil {
				t.Fatal(err)
			}
			release := &testSem{}
			var got []byte
			s.Spawn("server", server.cpu, func(th *sched.Thread) {
				conn, err := l.Accept(th)
				if err != nil {
					t.Error(err)
					return
				}
				release.Down(th) // the client has overwritten its frame
				buf := server.buf(t, 1024, 0)
				for {
					n, err := conn.Recv(th, buf, 1024)
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
				released := false
				defer func() {
					if !released {
						release.Up()
					}
				}()
				conn, err := client.stack.Connect(th, server.stack.IP(), port)
				if err != nil {
					t.Error(err)
					return
				}
				out := client.buf(t, len(msg), 0)
				b, _ := client.arena.Bytes(out, len(msg))
				copy(b, msg)
				dropAcks = true
				if _, err := conn.Send(th, out, len(msg)); err != nil {
					t.Error(err)
					return
				}
				client.stack.txKick() // flush the doorbell queue, if any
				if server.stack.Stats().BytesIn != uint64(len(msg)) {
					t.Errorf("server took %d bytes, want %d delivered before the check",
						server.stack.Stats().BytesIn, len(msg))
					return
				}
				if len(conn.rtx) != 1 {
					t.Errorf("rtx queue holds %d segments, want the unacked data segment", len(conn.rtx))
					return
				}
				frame := conn.rtx[0].frame
				// The slice the peer received is still exactly what the
				// sender built: a fresh encoding of its header and payload.
				h, payload, err := decodeFrame(frame)
				if err != nil || !bytes.Equal(payload, msg) {
					t.Errorf("retransmission frame changed by delivery: err=%v payload=%q", err, payload)
					return
				}
				want := make([]byte, len(frame))
				if _, err := encodeFrame(want, h, msg); err != nil || !bytes.Equal(frame, want) {
					t.Errorf("retransmission frame is not byte-identical after delivery (err=%v)", err)
					return
				}
				// Overwrite the delivered slice: the server's socket must
				// not see it.
				saved := bytes.Clone(frame)
				for i := range frame {
					frame[i] = 0xee
				}
				released = true
				release.Up()
				th.Yield()
				if !bytes.Equal(got, msg) {
					t.Errorf("server read %q while the sender's frame was overwritten, want %q", got, msg)
				}
				copy(frame, saved)
				dropAcks = false
				_ = conn.Close(th)
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
