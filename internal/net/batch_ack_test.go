package net

import (
	"bytes"
	"io"
	"testing"

	"flexos/internal/sched"
)

// TestAckPiggybacksOnEchoData: on an echo workload with the tx
// doorbell active, the acknowledgement for each received request must
// ride the echoed data segment instead of paying a frame — one NIC
// crossing per round trip in steady state, not two. The stack used to
// emit a standalone ACK frame even when the reply was already queued
// behind the doorbell.
func TestAckPiggybacksOnEchoData(t *testing.T) {
	const port, rounds, reqSize = 5001, 8, 512

	run := func(txBatch int) (segsOut, acksElided uint64) {
		s, server, client, _ := world(t, Config{TxBatch: txBatch})
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
			buf := server.buf(t, reqSize, 0)
			for {
				n, err := conn.Recv(th, buf, reqSize)
				if err == io.EOF {
					_ = conn.Close(th)
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				// The echo reply queues behind the doorbell before the
				// poll's ack intent resolves, so it must absorb the ACK.
				if _, err := conn.Send(th, buf, n); err != nil {
					t.Error(err)
					return
				}
			}
		})
		s.Spawn("client", client.cpu, func(th *sched.Thread) {
			conn, err := client.stack.Connect(th, server.stack.IP(), port)
			if err != nil {
				t.Error(err)
				return
			}
			out := client.buf(t, reqSize, 3)
			in := client.buf(t, reqSize, 0)
			want, _ := client.arena.Bytes(out, reqSize)
			for i := 0; i < rounds; i++ {
				if _, err := conn.Send(th, out, reqSize); err != nil {
					t.Error(err)
					return
				}
				got := 0
				for got < reqSize {
					n, err := conn.Recv(th, in, reqSize-got)
					if err != nil {
						t.Error(err)
						return
					}
					got += n
				}
				b, _ := client.arena.Bytes(in, reqSize)
				if !bytes.Equal(b[:reqSize], want[:reqSize]) {
					t.Errorf("round %d: echo corrupted", i)
					return
				}
			}
			_ = conn.Close(th)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		st := server.stack.Stats()
		return st.SegsOut, st.AcksElided
	}

	scalarSegs, _ := run(1)
	batchedSegs, elided := run(4)

	// Every round trip's request ACK must have been absorbed by the
	// echoed data segment.
	if elided < rounds {
		t.Fatalf("AcksElided = %d, want >= %d (one piggyback per round trip)", elided, rounds)
	}
	// The piggybacks are whole frames the scalar server paid: the
	// batched server emits one fewer segment per steady-state round
	// trip (the first trip overlaps the handshake, so allow one off).
	if scalarSegs < batchedSegs+rounds-1 {
		t.Fatalf("batched server sent %d segments vs %d scalar — piggyback saved < %d frames",
			batchedSegs, scalarSegs, rounds-1)
	}
	// Steady state is one data segment per round trip; everything else
	// (handshake, FIN exchange) is small constant overhead. A standalone
	// ACK sneaking back into the echo path would double this.
	if batchedSegs > rounds+4 {
		t.Fatalf("batched server sent %d segments for %d round trips, want <= %d (one crossing per data+ACK)",
			batchedSegs, rounds, rounds+4)
	}
}
