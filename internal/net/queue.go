package net

import (
	"encoding/binary"

	"flexos/internal/clock"
)

// Multi-queue NIC support: receive-side scaling (RSS) in the style of
// virtio-net/ixgbe multiqueue. The device exposes NumQueues rx/tx
// descriptor rings; a symmetric hash over the connection 4-tuple
// steers every flow to one queue, and each rx queue interrupts (and
// charges) its own vCPU, so the per-packet driver + stack input work
// of distinct flows lands on distinct cores. With one queue — the
// default, and always on a single-vCPU machine — the device degenerates
// to exactly the single-queue behavior.

// rssFold is the RSS hash: an additive fold of the 4-tuple, reduced
// modulo the queue count. Additive folding is symmetric (a flow hashes
// to the same queue in both directions, so a connection's rx and tx
// processing share cache state) and spreads the sequential ephemeral
// ports a client allocates round-robin across queues.
func rssFold(srcIP, dstIP uint32, srcPort, dstPort uint16, nq int) int {
	if nq <= 1 {
		return 0
	}
	sum := srcIP + dstIP + uint32(srcPort) + uint32(dstPort)
	return int(sum % uint32(nq))
}

// rssPeek extracts the steering 4-tuple from a raw frame without
// validating checksums: the hardware hashes header bytes as they
// arrive, long before the stack verifies the frame. Frames too short
// or non-IPv4 report !ok and steer to queue 0.
func rssPeek(frame []byte) (srcIP, dstIP uint32, srcPort, dstPort uint16, ok bool) {
	if len(frame) < EtherHdrLen+IPHdrLen+4 {
		return 0, 0, 0, 0, false
	}
	if binary.BigEndian.Uint16(frame[12:14]) != etherTypeIPv4 {
		return 0, 0, 0, 0, false
	}
	ip := frame[EtherHdrLen:]
	if ip[0] != 0x45 {
		return 0, 0, 0, 0, false
	}
	srcIP = binary.BigEndian.Uint32(ip[12:16])
	dstIP = binary.BigEndian.Uint32(ip[16:20])
	l4 := ip[IPHdrLen:]
	return srcIP, dstIP, binary.BigEndian.Uint16(l4[0:2]), binary.BigEndian.Uint16(l4[2:4]), true
}

// NumQueues reports the stack's NIC queue count.
func (st *Stack) NumQueues() int { return st.numQueues }

// queueCPUFor reports the vCPU id that queue q's interrupts are
// steered to: q mod NCPU.
func (st *Stack) queueCPUFor(q int) int { return q % st.env.CPU.NCPU() }

// frameQueue classifies a raw frame onto a queue via RSS.
func (st *Stack) frameQueue(frame []byte) int {
	if st.numQueues <= 1 {
		return 0
	}
	srcIP, dstIP, sp, dp, ok := rssPeek(frame)
	if !ok {
		return 0
	}
	return rssFold(srcIP, dstIP, sp, dp, st.numQueues)
}

// QueueOf reports the NIC queue a connected socket's flow is steered
// to — the queue (and so the vCPU) on which its rx processing runs.
// Applications use it to place a connection's worker thread on the
// same vCPU its data arrives on.
func (st *Stack) QueueOf(s *Socket) int {
	if st.numQueues <= 1 {
		return 0
	}
	return rssFold(uint32(st.ip), uint32(s.remoteIP), s.localPort, s.remotePort, st.numQueues)
}

// QueueCPUOf reports the vCPU a connected socket's rx processing is
// steered to: queueCPUFor(QueueOf(s)).
func (st *Stack) QueueCPUOf(s *Socket) int { return st.queueCPUFor(st.QueueOf(s)) }

// SpawnCPU returns vCPU id of the stack's machine, for harnesses
// placing worker threads on a specific vCPU, such as QueueCPUOf a
// connection.
func (st *Stack) SpawnCPU(id int) *clock.CPU { return st.env.CPU.CPU(id) }
