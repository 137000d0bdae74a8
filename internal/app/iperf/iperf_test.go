package iperf_test

import (
	"testing"

	"flexos/internal/app/iperf"
	"flexos/internal/clock"
	"flexos/internal/core/build"
	"flexos/internal/sched"
)

func runPair(t *testing.T, cfg build.Config, total, recvBuf, writeSize int) (*build.World, *iperf.Server, *iperf.Client) {
	t.Helper()
	w, err := build.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := iperf.NewServer(w.Server.Env("app"), w.Server.LibC, w.Server.Stack, 5001, recvBuf)
	cli := iperf.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack,
		w.Server.Stack.IP(), 5001, total, writeSize)
	w.Sched.Spawn("server", w.Server.CPU, func(th *sched.Thread) {
		if err := srv.Run(th); err != nil {
			t.Errorf("server: %v", err)
		}
	})
	w.Sched.Spawn("client", w.Client.CPU, func(th *sched.Thread) {
		if err := cli.Run(th); err != nil {
			t.Errorf("client: %v", err)
		}
	})
	if err := w.Sched.Run(); err != nil {
		t.Fatal(err)
	}
	return w, srv, cli
}

func TestTransferCompletes(t *testing.T) {
	const total = 300_000
	_, srv, cli := runPair(t, build.Config{}, total, 4096, 16<<10)
	if srv.BytesReceived != total || cli.BytesSent != total {
		t.Fatalf("rx %d tx %d, want %d", srv.BytesReceived, cli.BytesSent, total)
	}
	if srv.Recvs == 0 {
		t.Fatal("no recv calls counted")
	}
}

func TestDefaultWriteSize(t *testing.T) {
	w, err := build.NewWorld(build.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cli := iperf.NewClient(w.Client.Env("app"), w.Client.LibC, w.Client.Stack,
		w.Server.Stack.IP(), 5001, 1000, 0)
	if cli.WriteSize != 64<<10 {
		t.Fatalf("WriteSize = %d", cli.WriteSize)
	}
}

func TestSmallBufferManyRecvs(t *testing.T) {
	const total = 100_000
	_, srv, _ := runPair(t, build.Config{}, total, 128, 8<<10)
	if srv.Recvs < total/1500 {
		t.Fatalf("Recvs = %d, expected many with a 128B buffer", srv.Recvs)
	}
}

func TestThroughputScalesWithBuffer(t *testing.T) {
	gbps := func(buf int) float64 {
		w, srv, _ := runPair(t, build.Config{}, 400_000, buf, 16<<10)
		return clock.GbpsFor(srv.BytesReceived, w.Server.CPU.Cycles())
	}
	small, large := gbps(64), gbps(32<<10)
	if small >= large {
		t.Fatalf("throughput did not scale: %f vs %f", small, large)
	}
}
