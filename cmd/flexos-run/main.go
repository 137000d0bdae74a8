// Command flexos-run builds an image from a configuration file and
// runs a workload on it — the end-to-end flow of the paper's build
// system: edit a few options, recompile, measure.
//
// Usage:
//
//	flexos-run -config image.cfg [-workload iperf|redis] [-payload 50]
//	           [-ops 400] [-buf 4096] [-total 4194304] [-print-config]
//
// Without -config, the no-isolation baseline image runs, with the
// socket API over the tcpip thread like the paper's evaluation images.
// A configuration file runs exactly as written, socket-mode included.
package main

import (
	"flag"
	"fmt"
	"os"

	"flexos/internal/clock"
	"flexos/internal/core/build"
	"flexos/internal/harness"
	"flexos/internal/net"
)

func main() {
	configPath := flag.String("config", "", "image configuration file")
	workload := flag.String("workload", "redis", "workload: iperf or redis")
	payload := flag.Int("payload", 50, "redis value size")
	ops := flag.Int("ops", 400, "redis requests")
	buf := flag.Int("buf", 4096, "iperf recv buffer")
	total := flag.Int("total", 4<<20, "iperf bytes to transfer")
	printCfg := flag.Bool("print-config", false, "echo the normalized configuration and exit")
	flag.Parse()

	if err := run(*configPath, *workload, *payload, *ops, *buf, *total, *printCfg); err != nil {
		fmt.Fprintf(os.Stderr, "flexos-run: %v\n", err)
		os.Exit(1)
	}
}

func run(configPath, workload string, payload, ops, buf, total int, printCfg bool) error {
	cfg := build.Config{Net: net.Config{SocketMode: net.TCPIPThreadMode}}
	if configPath != "" {
		src, err := os.ReadFile(configPath)
		if err != nil {
			return err
		}
		cfg, err = build.ParseConfig(string(src))
		if err != nil {
			return err
		}
	}
	if printCfg {
		fmt.Print(build.FormatConfig(cfg))
		return nil
	}
	switch workload {
	case "iperf":
		r, err := harness.Run(cfg, harness.Load{App: harness.Iperf, Bytes: total, RecvBuf: buf})
		if err != nil {
			return err
		}
		fmt.Printf("iperf: %.2f Gb/s over %d bytes (recv buffer %d)\n", r.Gbps, r.Bytes, buf)
		fmt.Printf("  simulated server time: %.2f ms, %d domain crossings\n",
			clock.Nanoseconds(r.ServerCycles)/1e6, r.Crossings)
	case "redis":
		for _, op := range []harness.RedisOp{harness.OpSET, harness.OpGET} {
			r, err := harness.Run(cfg, harness.Load{App: harness.Redis, Op: op, Payload: payload, Ops: ops})
			if err != nil {
				return err
			}
			fmt.Printf("redis %s: %.1f kreq/s (%dB values, %d requests, %.2f crossings/req)\n",
				op, r.KReqPerSec, payload, r.Ops, float64(r.Crossings)/float64(r.Ops))
		}
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	return nil
}
