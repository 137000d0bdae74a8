package clock

// Calibrated cycle costs for the simulated Xeon Silver 4110.
//
// These constants are the single place where the simulator's cost model
// is defined. They were calibrated so that the harness reproduces the
// overhead *shape* reported in the paper (see EXPERIMENTS.md): MPK gates
// cost tens of cycles and are amortized by ~1 KiB payloads, VM RPC gates
// cost thousands and need ~32 KiB, ASAN-style hardening tracks a
// component's memory-op density, and the verified scheduler's contract
// checks triple the context-switch latency (76.6 ns -> 218.6 ns).
const (
	// CostCall is a plain intra-compartment function call (the gate
	// placeholder resolved to a direct call by the builder).
	CostCall = 2

	// CostWRPKRU is one write to the PKRU register. ERIM reports
	// 11-260 cycles depending on surrounding serialization; we use a
	// mid-range figure.
	CostWRPKRU = 60

	// CostRegisterClear is the register-hygiene work (clearing
	// caller-saved registers) performed by hardened MPK gates.
	CostRegisterClear = 30

	// CostStackSwitch is switching to the per-compartment stack in the
	// MPK switched-stack gate (Hodor-like), excluding parameter copy.
	CostStackSwitch = 90

	// CostParamCopyPerWord is copying one 8-byte parameter or shared
	// stack word to the target domain's stack.
	CostParamCopyPerWord = 2

	// CostVMNotify is raising an inter-VM event-channel notification
	// and scheduling the peer vCPU (VM exit + injection). Dominates the
	// EPT backend's crossing cost.
	CostVMNotify = 2500

	// CostVMRPCFixed is the remaining fixed per-RPC cost of the VM
	// backend (marshalling descriptor, shared-ring bookkeeping).
	CostVMRPCFixed = 500

	// CostMemPerByte is the per-byte cost of memcpy-style bulk copies.
	// ~16 bytes/cycle for warm AVX copies gives 0.0625; we charge in
	// integer cycles per 16-byte chunk instead (see ChargeCopy).
	CostMemChunk     = 1  // cycles per 16-byte chunk of bulk copy
	CostMemChunkSize = 16 // bytes per chunk

	// CostChecksumChunk is the per-chunk cost of the IP/TCP checksum.
	CostChecksumChunk     = 1
	CostChecksumChunkSize = 32

	// CostCrossCopyChunk is the per-16-byte cost of copying a payload
	// across a compartment boundary under copy transfer semantics
	// (Config.DataPath=copy). It is deliberately much more expensive
	// than CostMemChunk: a boundary copy runs against cold lines owned
	// by the other compartment and pays bounds/permission checks on
	// every chunk, where an intra-compartment memcpy streams warm AVX
	// copies. Charged to CompCopy so the copy-vs-share axis shows up
	// as its own component in bench output.
	CostCrossCopyChunk = 12

	// CostPacketFixed is the fixed per-packet processing cost of the
	// network stack (header parse/build, demux, timers).
	CostPacketFixed = 2000

	// CostXenPacketExtra is the additional per-packet platform cost on
	// the Xen port (the paper notes Unikraft is not optimized for Xen,
	// which is why the Xen baseline sits below KVM in Fig. 3).
	CostXenPacketExtra = 2200

	// CostSyscallish is the fixed cost of a socket-API entry
	// (recv/send) excluding gate crossings.
	CostSyscallish = 60

	// CostCtxSwitch is the C scheduler's context switch: 76.6 ns at
	// 2.1 GHz ~= 161 cycles.
	CostCtxSwitch = 161

	// CostVerifiedCtxSwitch is the verified (Dafny-ported) scheduler's
	// context switch: 218.6 ns at 2.1 GHz ~= 459 cycles. The extra
	// cycles are the executable pre/post-condition checks plus the
	// interrupt disable window in the glue code.
	CostVerifiedCtxSwitch = 459

	// CostSchedOp is a scheduler API operation (thread_add, wake,
	// block bookkeeping) excluding the switch itself.
	CostSchedOp = 30

	// CostVerifiedSchedOpExtra is the contract-check overhead added to
	// every verified-scheduler API entry.
	CostVerifiedSchedOpExtra = 40

	// CostIPI is sending one inter-processor interrupt: a cross-CPU
	// wake on the same machine pays it on the waking vCPU (APIC write
	// plus the remote reschedule interrupt's entry/exit, ~430 ns at
	// 2.1 GHz). Wakes that stay on one vCPU — every wake on a
	// single-core machine — cost nothing extra.
	CostIPI = 900

	// CostSteal is one work-stealing attempt that migrates a thread
	// from another vCPU's run queue: the victim-queue locking and the
	// cache-cold queue touch, charged to the thief.
	CostSteal = 120

	// CostSemOp is a semaphore up/down in LibC, excluding the
	// scheduler calls it makes for blocking/waking.
	CostSemOp = 25

	// CostMalloc / CostFree are the uninstrumented allocator's costs.
	CostMalloc = 45
	CostFree   = 30

	// CostASANMallocExtra / CostASANFreeExtra are redzone poisoning,
	// quarantine and bookkeeping added by the instrumented allocator.
	// With a single global allocator the *whole system* pays these on
	// every allocation — the paper's motivation for per-compartment
	// allocators (Fig. 4).
	CostASANMallocExtra = 150
	CostASANFreeExtra   = 100

	// CostASANCheck is one shadow-memory load+test, charged per
	// 8-byte-granule access check by hardened components.
	CostASANCheck = 2

	// CostASANCheckGranule is the bytes covered by one shadow check.
	CostASANCheckGranule = 8

	// CostSHBulkASANChunk is the extra per-16-byte-chunk cost of an
	// ASAN-instrumented bulk operation (memcpy and friends): the
	// generic shadow-memory intrinsics validate interior bytes, which
	// is why KASAN-style hardening hurts copy-dominated code (LibC)
	// an order of magnitude more than header-parsing code (Table 1).
	CostSHBulkASANChunk = 80

	// CostSHBulkUBSanChunk is the additional per-chunk cost of UBSan
	// bounds/overflow checks in instrumented bulk loops.
	CostSHBulkUBSanChunk = 8

	// CostCanary is stack-protector prologue+epilogue per protected
	// call frame.
	CostCanary = 4

	// CostCapCheck is one capability bounds/permission check on a
	// CHERI-style machine (folded into the load/store pipeline on real
	// hardware; charged explicitly here).
	CostCapCheck = 1

	// CostCInvoke is one CInvoke domain transition: unsealing a
	// code/data capability pair and installing the target domain's
	// capabilities. CHERI compartment switches are tens of cycles,
	// comparable to MPK's WRPKRU but with no domain-count limit.
	CostCInvoke = 50

	// CostFaultTrap is delivering one contained protection fault to the
	// caller's domain: decoding the fault, saving the trap record and
	// entering the supervisor — signal-delivery-ish, far above a gate
	// crossing but far below a VM notify pair.
	CostFaultTrap = 900

	// CostFaultSweepPage is scrubbing one 4 KiB page of a faulted
	// compartment's heap during restart teardown (walk, unmap-style
	// bookkeeping, free-list rebuild).
	CostFaultSweepPage = 40

	// CostFaultReclaimBuf is force-releasing one stranded pool buffer
	// during teardown (descriptor validation plus free-list insert).
	CostFaultReclaimBuf = 120

	// CostFaultBackoff is the base penalty before a replay attempt;
	// the supervisor doubles it per retry (bounded exponential backoff).
	CostFaultBackoff = 2000

	// CostDeadlineRefuse is an isolating gate refusing entry because
	// the crossing's fixed cost no longer fits the frame's deadline:
	// one clock read, one compare, one typed error — deliberately far
	// below CostFaultTrap, since nothing crossed and nothing needs
	// containment bookkeeping.
	CostDeadlineRefuse = 20

	// CostOverloadShed is admission rejecting a call before the gate:
	// the deadline check plus constructing the typed error.
	// Cheap rejection is the whole value of shedding — compare
	// CostFaultTrap (900) for work that crossed and then failed.
	CostOverloadShed = 120

	// CostBreakerFastFail is an open circuit breaker failing a call
	// fast: a state load and a branch, even cheaper than a shed
	// because no queue accounting is touched.
	CostBreakerFastFail = 40

	// CostBatchDispatch is dispatching one frame of an already-entered
	// batched gate call: reading the frame descriptor off the batch ring
	// and indirect-calling the target function. The whole point of
	// CallBatch is that N frames pay one CrossingCost plus N of these —
	// so it must stay far below every isolating backend's crossing cost
	// (compare CostWRPKRU=60, CostVMNotify=2500).
	CostBatchDispatch = 12

	// CostNICCoalescedPacket is the per-packet driver cost of the
	// second and later frames of a coalesced NIC batch (NAPI-style rx
	// polling, tx doorbell batching): descriptor-ring bookkeeping only,
	// with the interrupt/doorbell fixed cost already paid by the first
	// frame of the batch (compare the ~800-cycle full per-packet
	// platform cost in net.perPacketPlatformCycles).
	CostNICCoalescedPacket = 240

	// CostDictOpFixed is the Redis dict lookup/insert fixed cost.
	CostDictOpFixed = 120

	// CostRESPPerByte charges protocol parsing per input byte (RESP is
	// parsed byte-wise).
	CostRESPByteChunk     = 1
	CostRESPByteChunkSize = 4
)

// CopyCycles returns the cycle cost of bulk-copying n bytes.
func CopyCycles(n int) uint64 {
	if n <= 0 {
		return 0
	}
	chunks := (n + CostMemChunkSize - 1) / CostMemChunkSize
	return uint64(chunks * CostMemChunk)
}

// CrossCopyCycles returns the cycle cost of copying n bytes across a
// compartment boundary under copy transfer semantics.
func CrossCopyCycles(n int) uint64 {
	if n <= 0 {
		return 0
	}
	chunks := (n + CostMemChunkSize - 1) / CostMemChunkSize
	return uint64(chunks * CostCrossCopyChunk)
}

// ChecksumCycles returns the cycle cost of checksumming n bytes.
func ChecksumCycles(n int) uint64 {
	if n <= 0 {
		return 0
	}
	chunks := (n + CostChecksumChunkSize - 1) / CostChecksumChunkSize
	return uint64(chunks * CostChecksumChunk)
}

// ASANCheckCycles returns the shadow-check cost for touching n bytes.
func ASANCheckCycles(n int) uint64 {
	if n <= 0 {
		return 0
	}
	granules := (n + CostASANCheckGranule - 1) / CostASANCheckGranule
	return uint64(granules * CostASANCheck)
}

// FaultSweepCycles returns the teardown cost of sweeping n bytes of a
// faulted compartment's heap (charged per 4 KiB page).
func FaultSweepCycles(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	pages := (n + 4095) / 4096
	return pages * CostFaultSweepPage
}

// RESPParseCycles returns the parse cost for n protocol bytes.
func RESPParseCycles(n int) uint64 {
	if n <= 0 {
		return 0
	}
	chunks := (n + CostRESPByteChunkSize - 1) / CostRESPByteChunkSize
	return uint64(chunks * CostRESPByteChunk)
}
