package net

import (
	"errors"
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/core/gate"
	"flexos/internal/fault"
	"flexos/internal/mem"
	"flexos/internal/rt"
	"flexos/internal/sched"
	"flexos/internal/sh"
	"flexos/internal/trace"
)

// Stats counts stack activity.
type Stats struct {
	SegsIn      uint64
	SegsOut     uint64
	BytesIn     uint64
	BytesOut    uint64
	Retransmits uint64
	DroppedIn   uint64
	DroppedOut  uint64
	RSTsOut     uint64
	// TxDoorbells counts doorbell flushes of the tx batch queue; the
	// frames of one doorbell cross the driver boundary together.
	TxDoorbells uint64
	// AcksElided counts pure acknowledgements that never became frames:
	// collapsed into a later cumulative ACK of the same rx burst, or
	// piggybacked on an outgoing data segment.
	AcksElided uint64
	// FastRetransmits counts segments resent on the third duplicate ACK,
	// before the retransmission timer fired (also counted in
	// Retransmits).
	FastRetransmits uint64
	// ChecksumDrops counts frames rejected by checksum validation —
	// injected bit corruption detected instead of delivered (also
	// counted in DroppedIn).
	ChecksumDrops uint64
	// OOOQueued counts out-of-order segments buffered in the reassembly
	// queue rather than dropped (reordered links stop costing an RTO per
	// swap).
	OOOQueued uint64
	// ZeroWndProbes counts window probes sent against a peer advertising
	// a zero window.
	ZeroWndProbes uint64
	// KeepaliveProbes counts keepalive probes sent on idle connections.
	KeepaliveProbes uint64
	// NetDeaths counts connections declared dead (retransmit exhaustion,
	// zero-window or keepalive probe failure) and delivered as typed
	// NetTimeout faults.
	NetDeaths uint64
}

// connKey demultiplexes established connections: the local port,
// remote IP and remote port packed into one word, so the demux map
// hashes a uint64.
type connKey uint64

func keyOf(localPort uint16, remoteIP IPAddr, remotePort uint16) connKey {
	return connKey(localPort)<<48 | connKey(remoteIP)<<16 | connKey(remotePort)
}

// localPort is the local port packed into k.
func (k connKey) localPort() uint16 { return uint16(k >> 48) }

// key is s's demux key.
func (s *Socket) key() connKey { return keyOf(s.localPort, s.remoteIP, s.remotePort) }

// Config tunes a Stack.
type Config struct {
	// IP is the stack's address.
	IP IPAddr
	// Platform selects per-packet driver cost (KVM or Xen).
	Platform Platform
	// RecvBuf is the per-socket receive buffer capacity (default 64 KiB).
	RecvBuf int
	// SocketMode selects direct execution or the tcpip-thread
	// (netconn) handoff for socket operations.
	SocketMode SocketMode
	// DataPath selects copy or shared (descriptor-passing) payload
	// movement between compartments; see the DataPath type.
	DataPath DataPath
	// RestHard is the hardening surface of the "rest of the system"
	// library, which owns the NIC driver and platform code; the
	// builder wires it so that hardening "rest" instruments the
	// driver's per-packet work (Table 1's fourth row).
	RestHard *sh.Hardener
	// TxBatch is the tx doorbell depth (the `batch rest <depth>`
	// directive): outgoing frames queue until depth frames are pending,
	// a kick point fires, or the stack is about to block, then cross the
	// driver boundary together — the first frame of a doorbell pays the
	// full per-packet platform cost, the rest only ring bookkeeping.
	// <= 1 (the default) transmits every frame immediately.
	TxBatch int
	// RxBudget is the NAPI-style receive poll budget (the
	// `batch netstack <depth>` directive): frames arriving in one wire
	// batch are processed up to RxBudget per poll, with the interrupt
	// cost paid once per poll and pure ACKs held so each touched socket
	// acknowledges the whole burst once. <= 1 (the default) takes the
	// per-frame interrupt path.
	RxBudget int
	// NumQueues is the NIC's rx/tx queue count. RSS steers each flow
	// to one queue, whose interrupts land on vCPU q mod NCPU; the poll
	// budget applies per queue. <= 1 (the default) is a single-queue
	// device.
	NumQueues int
	// KeepaliveTicks enables keepalive probing: after KeepaliveTicks of
	// connection silence a probe goes out, and keepaliveProbes
	// unanswered probes declare the peer dead (a typed NetTimeout
	// fault). 0 (the default) disables keepalive — an always-armed
	// timer would perturb idle-time accounting of fault-free runs.
	KeepaliveTicks uint64
}

// keepaliveProbes bounds unanswered keepalive probes before a
// connection is declared dead.
const keepaliveProbes = 3

// rtxDelayTicks is the initial retransmission timeout in timer ticks
// and the floor of the adaptive one (see rto). rtxLimit bounds
// consecutive retransmissions of the same data, and consecutive
// zero-window probes answered without progress, before the connection
// is declared dead.
//
// The timeout mixes two clock domains. Its RTT samples are CPU cycles
// (processAck), but it arms a scheduler timer in ticks, which advance
// only when the run queue drains. So once a connection has a sample,
// its timeout is a cycle count used as ticks, clamped to
// [rtxDelayTicks, rtxDelayTicks<<rtxLimit]. Measuring RTT in ticks
// would mend this and move every lossy-link number.
const (
	rtxDelayTicks = 1000
	rtxLimit      = 8
)

// Stack is one machine's TCP/IP stack instance.
type Stack struct {
	env       *rt.Env
	lc        rt.Callee // libc: memcpy and the semaphores behind Support
	rest      rt.Callee // the NIC drivers' library ("rest")
	sup       Support
	scheduler sched.Scheduler
	nic       *NIC
	ip        IPAddr
	platform  Platform

	listeners map[uint16]*Socket
	conns     map[connKey]*Socket

	recvBuf   int
	keepalive uint64

	restHard *sh.Hardener
	mode     SocketMode
	tcpip    *tcpipState
	dataPath DataPath

	// Crossing-amortization state (tx doorbell + rx coalescing).
	txBatch   int
	rxBudget  int
	txqs      [][][]byte // per-queue frames awaiting the next doorbell kick
	ackq      []*Socket  // sockets owing a pure ACK (intent, not frame)
	inRxBatch bool       // inside a NAPI poll: hold pure ACKs
	kicking   bool       // txKick re-entrancy guard
	// The outer kick swaps these in for the ring or intent list it
	// drains and keeps the drained array as the next spare, so the
	// doorbell path reuses its backing arrays.
	txSpare  [][]byte
	ackSpare []*Socket

	// Frame reuse (see newFrame and releaseFrame).
	frames  [][]byte // free frameCap buffers
	limbo   [][]byte // released frames waiting for settleFrames
	txDepth int      // transmits of this stack in flight

	// Multi-queue NIC state (RSS).
	numQueues int

	nextEphemeral uint16
	isn           uint32
	stats         Stats
}

// NewStack builds a stack bound to env (library "netstack" of one
// machine) with LibC services sup and the machine's scheduler for
// timers.
func NewStack(env *rt.Env, sup Support, s sched.Scheduler, cfg Config) *Stack {
	if cfg.RecvBuf <= 0 {
		cfg.RecvBuf = 64 << 10
	}
	if cfg.NumQueues < 1 {
		cfg.NumQueues = 1
	}
	return &Stack{
		env:           env,
		lc:            rt.Bind(env, "libc"),
		rest:          rt.Bind(env, "rest"),
		sup:           sup,
		scheduler:     s,
		ip:            cfg.IP,
		platform:      cfg.Platform,
		listeners:     make(map[uint16]*Socket),
		conns:         make(map[connKey]*Socket),
		recvBuf:       cfg.RecvBuf,
		keepalive:     cfg.KeepaliveTicks,
		restHard:      cfg.RestHard,
		mode:          cfg.SocketMode,
		dataPath:      cfg.DataPath,
		txBatch:       cfg.TxBatch,
		rxBudget:      cfg.RxBudget,
		txqs:          make([][][]byte, cfg.NumQueues),
		numQueues:     cfg.NumQueues,
		nextEphemeral: 49152,
		isn:           1,
	}
}

// IP reports the stack's address.
func (st *Stack) IP() IPAddr { return st.ip }

// Stats returns a copy of the counters.
func (st *Stack) Stats() Stats { return st.stats }

// emit hands one transport repair event (net-*) to the machine's sink;
// callers formatting a note test st.env.Sink.On() first.
func (st *Stack) emit(kind, note string) {
	if st.env.Sink.On() {
		st.env.Sink.Emit(trace.Event{Kind: kind, From: "netstack", Note: note})
	}
}

func (st *Stack) attachNIC(n *NIC) { st.nic = n }

// NIC exposes the attached device (nil before Connect) — the
// observability layer snapshots its per-queue rx/tx/coalesce/doorbell
// counters.
func (st *Stack) NIC() *NIC { return st.nic }

// QueueCPU reports the vCPU that services ring q's interrupts.
func (st *Stack) QueueCPU(q int) int { return st.queueCPUFor(q) }

// transmitNow hands a frame to the NIC immediately; a stack with no
// link drops it (a real device would not be up yet).
func (st *Stack) transmitNow(frame []byte) {
	if st.nic == nil {
		st.stats.DroppedOut++
		return
	}
	st.txDepth++
	st.nic.transmit(frame)
	st.txDepth--
	st.settleFrames()
}

// frameCap is the capacity of every reusable frame buffer: a full
// data segment.
const frameCap = HdrLen + MSS

// frameLimboMax bounds the frames waiting in limbo. Past it a
// released frame is left to the collector: reuse is only a saving,
// and a trap that unwinds through a transmit leaves txDepth raised
// for good, which would otherwise grow the limbo without end.
const frameLimboMax = 256

// newFrame returns an n-byte frame buffer, reusing a released one when
// the free list has it. The bytes are stale: the frame encoders
// overwrite every byte of the frame they build. A frame larger than
// frameCap is made to measure and never reused.
func (st *Stack) newFrame(n int) []byte {
	if n > frameCap {
		return make([]byte, n)
	}
	if k := len(st.frames); k > 0 {
		f := st.frames[k-1]
		st.frames[k-1] = nil
		st.frames = st.frames[:k-1]
		return f[:n]
	}
	return make([]byte, n, frameCap)
}

// releaseFrame gives up the caller's reference to a frame: one that
// has left a socket's retransmission queue, or a frame no queue kept
// that transmit has taken. The frame may still be read by a transmit
// in flight (inline delivery runs the peer's input, and with it this
// stack's ACK processing, in the middle of a transmit) or sit in a tx
// ring, so it waits in limbo until settleFrames finds neither. Frames
// not made by newFrame (SYN, FIN, probes, resets) are the collector's.
func (st *Stack) releaseFrame(f []byte) {
	if cap(f) != frameCap || len(st.limbo) >= frameLimboMax {
		return
	}
	st.limbo = append(st.limbo, f)
	st.settleFrames()
}

// settleFrames moves the limbo onto the free list once no reference to
// a released frame can remain: no transmit of this stack is in flight
// and every tx ring is empty. The outermost transmit or kick settles
// what was released inside it. A trap unwinding through a transmit
// skips the decrement of txDepth, so it can only keep frames out of
// reuse, never return one early.
func (st *Stack) settleFrames() {
	if st.txDepth > 0 || len(st.limbo) == 0 || st.txPending() > 0 {
		return
	}
	st.frames = append(st.frames, st.limbo...)
	clear(st.limbo)
	st.limbo = st.limbo[:0]
}

// transmit hands a frame to the NIC, through the tx doorbell queue
// when batching is configured: frames wait until the queue reaches the
// doorbell depth or a kick point fires (end of an rx poll, a timer, or
// the stack about to block — see semDown). Queued frames stay ordered;
// connection-control frames bypass the queue via sendFlags, which
// kicks it first to keep ordering.
func (st *Stack) transmit(frame []byte) {
	if st.txBatch <= 1 {
		st.transmitNow(frame)
		return
	}
	q := st.frameQueue(frame)
	st.txqs[q] = append(st.txqs[q], frame)
	if len(st.txqs[q]) >= st.txBatch {
		st.txKick()
	}
}

// txPending reports the number of frames waiting across all tx rings.
func (st *Stack) txPending() int {
	n := 0
	for _, q := range st.txqs {
		n += len(q)
	}
	return n
}

// txKick rings the tx doorbell: pending ack intents resolve to at most
// one cumulative ACK frame per socket, then every queued frame crosses
// the driver boundary in one batch. Re-entrant kicks (the inline
// delivery of a batch can land response frames that kick again) are
// absorbed by the outer kick's loop.
func (st *Stack) txKick() {
	if st.kicking {
		return
	}
	st.kicking = true
	defer func() { st.kicking = false }()
	for len(st.ackq) > 0 || st.txPending() > 0 {
		ackq := st.ackq
		st.ackq = st.ackSpare
		for _, s := range ackq {
			if !s.ackQueued {
				continue // absorbed by a data segment or a collapse
			}
			s.ackQueued = false
			if s.state == stClosed {
				continue
			}
			_ = st.sendFlags(s, flagACK)
		}
		clear(ackq)
		st.ackSpare = ackq[:0]
		// Each tx ring is its own doorbell: the first frame of a ring's
		// batch pays the doorbell cost, the rest coalesce.
		for q := range st.txqs {
			frames := st.txqs[q]
			if len(frames) == 0 {
				continue
			}
			st.txqs[q] = st.txSpare
			if st.nic == nil {
				st.stats.DroppedOut += uint64(len(frames))
			} else {
				st.stats.TxDoorbells++
				st.txDepth++
				st.nic.transmitBatch(frames)
				st.txDepth--
			}
			clear(frames)
			st.txSpare = frames[:0]
		}
	}
	st.settleFrames()
}

// ackDefer reports whether a pure acknowledgement should become an
// intent rather than a frame: inside an rx poll (so the burst collapses
// to one cumulative ACK per socket) or whenever the tx doorbell is
// active (so a queued data segment can absorb it).
func (st *Stack) ackDefer() bool { return st.inRxBatch || st.txBatch > 1 }

// ackIntent records that s owes the peer a pure ACK; the next doorbell
// kick resolves it. A socket already owing one collapses — TCP ACKs
// are cumulative, so the later frame acknowledges everything.
func (st *Stack) ackIntent(s *Socket) {
	if s.ackQueued {
		st.stats.AcksElided++
		return
	}
	s.ackQueued = true
	st.ackq = append(st.ackq, s)
}

// ackCancel absorbs a pending ack intent into an outgoing data segment
// (which always carries Ack = rcvNxt): the piggyback path.
func (st *Stack) ackCancel(s *Socket) {
	if s.ackQueued {
		s.ackQueued = false
		st.stats.AcksElided++
	}
}

// sendAck emits a pure acknowledgement, deferring to the doorbell's
// ack intents when batching is active.
func (st *Stack) sendAck(s *Socket) {
	if st.ackDefer() {
		st.ackIntent(s)
		return
	}
	_ = st.sendFlags(s, flagACK)
}

// beginRxBatch / endRxBatch bracket one NAPI poll: pure ACKs are held
// for the duration and flushed (collapsed per socket) with one doorbell
// kick at the end.
func (st *Stack) beginRxBatch() { st.inRxBatch = true }
func (st *Stack) endRxBatch() {
	st.inRxBatch = false
	st.txKick()
}

// newSocket builds a socket with its LibC semaphores (created through
// the libc gate).
func (st *Stack) newSocket() *Socket {
	s := &Socket{stack: st, rcvWndCap: st.recvBuf}
	// Each timer is made once and re-armed with Reset.
	ts := st.scheduler.Timers()
	s.rtxTimer = ts.NewTimer(func() { st.rtxExpire(s) })
	s.zwpTimer = ts.NewTimer(func() { st.zwpExpire(s) })
	s.kaTimer = ts.NewTimer(func() { st.kaExpire(s) })
	_ = st.lc.Call("sem_init", 1, func() error {
		s.rcvSem = st.sup.NewSem(0)
		s.sndSem = st.sup.NewSem(0)
		s.acceptSem = st.sup.NewSem(0)
		s.connSem = st.sup.NewSem(0)
		return nil
	})
	s.lastAdvWnd = s.rcvWnd()
	return s
}

// Listen binds a listening socket to port.
func (st *Stack) Listen(port uint16, backlog int) (*Socket, error) {
	if _, ok := st.listeners[port]; ok {
		return nil, fmt.Errorf("%w: %d", ErrInUse, port)
	}
	if backlog <= 0 {
		backlog = 8
	}
	s := st.newSocket()
	s.state = stListen
	s.localIP = st.ip
	s.localPort = port
	s.backlog = backlog
	st.listeners[port] = s
	return s, nil
}

// Connect opens a connection to ip:port, blocking until established.
// In TCPIPThreadMode the operation runs on the tcpip thread.
func (st *Stack) Connect(t *sched.Thread, ip IPAddr, port uint16) (*Socket, error) {
	var s *Socket
	err := st.apimsg(t, func(cur *sched.Thread) error {
		var err error
		s, err = st.doConnect(cur, ip, port)
		return err
	})
	return s, err
}

func (st *Stack) doConnect(t *sched.Thread, ip IPAddr, port uint16) (*Socket, error) {
	local, err := st.allocPort()
	if err != nil {
		return nil, err
	}
	s := st.newSocket()
	s.state = stSynSent
	s.localIP = st.ip
	s.localPort = local
	s.remoteIP = ip
	s.remotePort = port
	s.iss = st.nextISN()
	s.sndUna = s.iss
	s.sndNxt = s.iss
	st.conns[s.key()] = s
	if err := st.sendFlags(s, flagSYN); err != nil {
		return nil, err
	}
	for s.state == stSynSent {
		if err := st.semDown(t, s.connSem); err != nil {
			return nil, err
		}
	}
	if s.sockErr != nil {
		return nil, s.takeErr()
	}
	return s, nil
}

// ephemeralBase is the bottom of the IANA dynamic port range the
// stack hands out ephemeral source ports from.
const ephemeralBase = 49152

// allocPort hands out an ephemeral source port. The cursor wraps
// around the dynamic range, and ports currently held by a live TCP
// connection or a listener are skipped — after a wraparound the naive
// cursor used to re-issue a port backing an active 4-tuple, aliasing
// two connections onto one demux key and misdelivering segments. Port 0 is never returned (it is the
// "unbound" sentinel to every caller). When every port of the range
// is held it reports ErrNoPorts instead of aliasing.
func (st *Stack) allocPort() (uint16, error) {
	const span = 1<<16 - ephemeralBase
	for i := 0; i < span; i++ {
		p := st.nextEphemeral
		st.nextEphemeral++
		if st.nextEphemeral == 0 {
			st.nextEphemeral = ephemeralBase
		}
		if p == 0 || p < ephemeralBase {
			// A cursor below the range (zero value, or a test poking it)
			// re-enters at the base rather than issuing reserved ports.
			st.nextEphemeral = ephemeralBase
			continue
		}
		if st.portInUse(p) {
			continue
		}
		return p, nil
	}
	return 0, ErrNoPorts
}

// portInUse reports whether any live endpoint holds p as its local
// port: an established/half-open TCP connection (any remote) or a
// listener.
func (st *Stack) portInUse(p uint16) bool {
	if _, ok := st.listeners[p]; ok {
		return true
	}
	for k := range st.conns {
		if k.localPort() == p {
			return true
		}
	}
	return false
}

func (st *Stack) nextISN() uint32 {
	st.isn += 64000
	return st.isn
}

// --- Gate-routed LibC helpers -------------------------------------

// memcpy performs a bulk copy in LibC through the netstack->libc gate.
func (st *Stack) memcpy(dst, src mem.Addr, n int) error {
	return st.lc.Call("memcpy", 3, func() error {
		return st.sup.Memcpy(dst, src, n)
	})
}

// memcpyIn is memcpy with the destination pool buffer's descriptor
// attached to the gate frame (the descriptor-passing ABI); on the
// legacy path it degrades to a plain memcpy.
func (st *Stack) memcpyIn(dst, src mem.Addr, n int, own rxOwn) error {
	if !own.pooled {
		return st.memcpy(dst, src, n)
	}
	frame := gate.CallFrame{ArgWords: 3, RetWords: 1, Bufs: []mem.BufRef{own.ref}}
	return st.lc.CallFrame("memcpy", frame, func() error {
		return st.sup.Memcpy(dst, src, n)
	})
}

// semDown blocks on a LibC semaphore. The uncontended decrement works
// on the shared counter inline; only blocking crosses into LibC (and
// from there into the scheduler). A stack about to block first rings
// the tx doorbell: a frame the peer needs to make progress (data, a
// window update) must never sit in the queue while both ends park —
// and since delivery is inline, the kick itself may produce the wake
// this thread was about to sleep for, hence the second TryDown. It
// returns the error of the sem_down crossing: a trapped crossing, or
// one into a degraded libc compartment, returns before t ever parked,
// so a caller that waited again would spin without yielding.
func (st *Stack) semDown(t *sched.Thread, sem Sem) error {
	if sem.TryDown() {
		return nil
	}
	if st.txBatch > 1 || st.txPending() > 0 || len(st.ackq) > 0 {
		st.txKick()
		if sem.TryDown() {
			return nil
		}
	}
	return st.lc.Call("sem_down", 2, func() error {
		return sem.Down(t)
	})
}

// semUp signals a LibC semaphore, crossing the gate only when a waiter
// must be woken.
func (st *Stack) semUp(sem Sem) {
	if !sem.HasWaiters() {
		sem.Up()
		return
	}
	_ = st.lc.Call("sem_up", 1, func() error {
		sem.Up()
		return nil
	})
}

// --- Output path ---------------------------------------------------

// sendData transmits one data segment whose payload is copied (in
// LibC) from the arena buffer at src.
func (st *Stack) sendData(s *Socket, src mem.Addr, n int) error {
	// The TX mbuf holds headers + payload: a pool buffer on the shared
	// data path, a netstack-compartment allocation otherwise.
	own, err := st.allocRx(HdrLen + n)
	if err != nil {
		return err
	}
	mbuf := own.base
	defer func() { _ = st.releaseRx(own) }()
	if err := st.memcpyIn(mbuf+HdrLen, src, n, own); err != nil {
		return err
	}
	// Under copy semantics the payload was pulled across the app/libc
	// boundary into netstack memory.
	st.crossCopy(&st.lc, copyIn, n)
	payload, err := st.env.Bytes(mbuf+HdrLen, n)
	if err != nil {
		return err
	}
	frame := st.newFrame(HdrLen + n)
	h := header{
		SrcIP: s.localIP, DstIP: s.remoteIP,
		SrcPort: s.localPort, DstPort: s.remotePort,
		Seq: s.sndNxt, Ack: s.rcvNxt,
		Flags: flagACK | flagPSH,
		Wnd:   uint16(s.rcvWnd()),
	}
	if _, err := encodeFrame(frame, h, payload); err != nil {
		return err
	}
	st.chargeTx(len(frame), n)
	// Outgoing data piggybacks the acknowledgement: any doorbell ack
	// intent is absorbed by this segment's Ack.
	st.ackCancel(s)
	s.sndNxt += uint32(n)
	s.rtx = append(s.rtx, rtxSeg{seq: h.Seq, flags: h.Flags, frame: frame,
		sentAt: st.env.CPU.Cycles()})
	st.armRtx(s)
	st.stats.SegsOut++
	st.stats.BytesOut += uint64(n)
	st.transmit(frame)
	return nil
}

// sendFlags transmits a control segment (SYN/ACK/FIN/RST combinations,
// no payload).
func (st *Stack) sendFlags(s *Socket, flags uint8) error {
	h := header{
		SrcIP: s.localIP, DstIP: s.remoteIP,
		SrcPort: s.localPort, DstPort: s.remotePort,
		Seq: s.sndNxt, Ack: s.rcvNxt,
		Flags: flags,
		Wnd:   uint16(s.rcvWnd()),
	}
	retained := flags&(flagFIN|flagSYN) != 0
	var frame []byte
	if retained {
		frame = make([]byte, HdrLen)
	} else {
		frame = st.newFrame(HdrLen)
	}
	if _, err := encodeFrame(frame, h, nil); err != nil {
		return err
	}
	st.chargeTx(len(frame), 0)
	s.lastAdvWnd = s.rcvWnd()
	st.stats.SegsOut++
	if retained {
		// SYN and FIN each consume a sequence number and are kept for
		// retransmission.
		s.rtx = append(s.rtx, rtxSeg{seq: h.Seq, flags: flags, frame: frame,
			sentAt: st.env.CPU.Cycles()})
		s.sndNxt++
		st.armRtx(s)
		// Handshake and teardown latency must not wait on a doorbell:
		// flush the queue (keeping frame order) and go out immediately.
		st.txKick()
		st.transmitNow(frame)
		return nil
	}
	st.transmit(frame)
	st.releaseFrame(frame)
	return nil
}

// chargeTx attributes the per-segment stack cost of building and
// checksumming a frame. Under copy semantics the finished frame is
// also copied out to the driver's tx ring in the rest compartment.
func (st *Stack) chargeTx(frameLen, payloadLen int) {
	st.env.Charge(clock.CostPacketFixed + clock.ChecksumCycles(frameLen))
	st.env.Hard.OnFrame()
	st.env.Hard.OnTouch(HdrLen)
	st.crossCopy(&st.rest, copyOut, frameLen)
	_ = payloadLen
}

// rto is the socket's current retransmission timeout: the Jacobson
// estimate srtt + 4*rttvar once samples exist, floored at
// rtxDelayTicks (which keeps fault-free timer schedules identical to
// the fixed-timeout stack — inline delivery yields RTT samples far
// below the floor) and capped so exhaustion is reached in
// bounded virtual time even on a high-RTT path.
func (st *Stack) rto(s *Socket) uint64 {
	if !s.rttValid {
		return rtxDelayTicks
	}
	rto := s.srtt + 4*s.rttvar
	if rto < rtxDelayTicks {
		rto = rtxDelayTicks
	}
	if hi := uint64(rtxDelayTicks) << rtxLimit; rto > hi {
		rto = hi
	}
	return rto
}

// rttSample feeds one measurement into the Jacobson/Karn estimator.
// Callers must not sample retransmitted segments (Karn's rule): an ACK
// for a retransmitted sequence range is ambiguous about which copy it
// acknowledges.
func (s *Socket) rttSample(m uint64) {
	if !s.rttValid {
		s.srtt = m
		s.rttvar = m / 2
		s.rttValid = true
		return
	}
	d := m - s.srtt
	if m < s.srtt {
		d = s.srtt - m
	}
	s.rttvar = (3*s.rttvar + d) / 4
	s.srtt = (7*s.srtt + m) / 8
}

// armRtx starts the retransmission timer if not running. The timeout
// adapts to the measured RTT (see rto) and doubles per consecutive
// expiry — Karn's backoff — until rtxLimit, where the connection is
// declared dead with a typed NetTimeout the containment layer can
// classify.
func (st *Stack) armRtx(s *Socket) {
	if s.rtxTimer.Armed() {
		return
	}
	s.rtxCount = 0
	s.rtxStart = st.scheduler.Timers().Now()
	s.rtxTimer.Reset(st.rto(s))
}

// rtxExpire is the retransmission timer's body: it resends every
// unacknowledged segment and re-arms with the backed-off timeout.
func (st *Stack) rtxExpire(s *Socket) {
	if len(s.rtx) == 0 || s.sockErr != nil {
		return
	}
	s.rtxCount++
	if s.rtxCount > rtxLimit {
		st.netDeath(s, "netstack:rtx", rtxLimit, 0, st.scheduler.Timers().Now()-s.rtxStart)
		return
	}
	if st.env.Sink.On() {
		st.emit("net-rto", fmt.Sprintf("rtx %d port %d", s.rtxCount, s.localPort))
	}
	// Inline delivery means a retransmitted frame can be ACKed — and
	// the rtx queue trimmed — before transmit returns, so the bound
	// is re-read every iteration and entries are addressed by index.
	for i := 0; i < len(s.rtx); i++ {
		r := &s.rtx[i]
		r.rtxed = true // Karn: never sample a retransmitted segment
		frame := r.frame
		st.stats.Retransmits++
		st.stats.SegsOut++
		st.chargeTx(len(frame), 0)
		st.transmit(frame)
	}
	// Retransmissions ride one doorbell; the timer context has no
	// blocking point to kick for them later.
	st.txKick()
	s.rtxTimer.Reset(st.rto(s) << uint(s.rtxCount))
}

// sendProbe emits a window/keepalive probe: one garbage byte below the
// peer's expected sequence number. The peer drops it as out-of-window
// and answers with a duplicate ACK carrying its current window — the
// liveness signal the prober is after — without any sequence-space
// side effects.
func (st *Stack) sendProbe(s *Socket) {
	h := header{
		SrcIP: s.localIP, DstIP: s.remoteIP,
		SrcPort: s.localPort, DstPort: s.remotePort,
		Seq: s.sndUna - 1, Ack: s.rcvNxt,
		Flags: flagACK,
		Wnd:   uint16(s.rcvWnd()),
	}
	frame := make([]byte, HdrLen+1)
	if _, err := encodeFrame(frame, h, []byte{0}); err != nil {
		return
	}
	st.chargeTx(len(frame), 0)
	st.stats.SegsOut++
	// Probes run in timer context and must not strand in the doorbell.
	st.txKick()
	st.transmitNow(frame)
}

// armZwp starts the zero-window probe timer. It is armed only when the
// peer's advertised window is exactly zero and a sender is about to
// park on it — the one state where no ACK is owed to us and the
// window-update that reopens flow control can be lost forever — and
// disarmed by the first ACK advertising space (processAck). Fault-free
// runs cannot reach a full scheduler drain in this state (that would
// have been a flow-control deadlock before probes existed), so the
// timer changes nothing when the wire is clean.
//
// Probing is not indefinite: a peer whose window never reopens — its
// application is dead but its transport still answers — is as gone as
// one that stops ACKing, so after rtxLimit unanswered-by-progress
// probes the connection dies with the same typed NetTimeout as
// retransmission exhaustion. Without the cap a crashed receiver would
// keep the probe clock ticking forever and the scheduler could never
// drain.
func (st *Stack) armZwp(s *Socket) {
	if s.zwpTimer.Armed() || st.nic == nil {
		return
	}
	s.zwpStart = st.scheduler.Timers().Now()
	s.zwpCount = 0
	s.zwpTimer.Reset(st.rto(s))
}

// zwpExpire is the zero-window probe timer's body.
func (st *Stack) zwpExpire(s *Socket) {
	if s.sockErr != nil || s.state == stClosed || s.sndWnd > 0 {
		return
	}
	if s.zwpCount >= rtxLimit {
		st.netDeath(s, "netstack:zwp", 0, s.zwpCount,
			st.scheduler.Timers().Now()-s.zwpStart)
		return
	}
	s.zwpCount++
	st.stats.ZeroWndProbes++
	if st.env.Sink.On() {
		st.emit("net-zwp", fmt.Sprintf("probe %d port %d", s.zwpCount, s.localPort))
	}
	st.sendProbe(s)
	backoff := s.zwpCount
	if backoff > 6 {
		backoff = 6
	}
	s.zwpTimer.Reset(st.rto(s) << uint(backoff))
}

// armKeepalive starts the idle-connection prober on an established
// socket. Configured off by default; when on, a connection silent for
// KeepaliveTicks is probed, and keepaliveProbes unanswered probes
// declare the peer dead with a typed NetTimeout.
func (st *Stack) armKeepalive(s *Socket) {
	if st.keepalive == 0 || s.kaTimer.Armed() {
		return
	}
	s.lastActivity = st.scheduler.Timers().Now()
	s.kaTimer.Reset(st.keepalive)
}

// kaExpire is the keepalive timer's body.
func (st *Stack) kaExpire(s *Socket) {
	if s.sockErr != nil || s.state == stClosed {
		return
	}
	// Idle time is measured on the timer wheel's clock, not CPU
	// cycles: a fully parked machine burns no cycles, so a
	// cycle-based idle would never grow and the timer would re-arm
	// forever without ever probing.
	now := st.scheduler.Timers().Now()
	idle := now - s.lastActivity
	if idle < st.keepalive {
		// The connection spoke since the last check: probe budget
		// resets and the timer re-arms for the remaining idle window.
		s.kaProbes = 0
		s.kaTimer.Reset(st.keepalive - idle)
		return
	}
	s.kaProbes++
	if s.kaProbes > keepaliveProbes {
		st.netDeath(s, "netstack:keepalive", 0, keepaliveProbes, idle)
		return
	}
	st.stats.KeepaliveProbes++
	if st.env.Sink.On() {
		st.emit("net-keepalive", fmt.Sprintf("probe %d port %d", s.kaProbes, s.localPort))
	}
	st.sendProbe(s)
	s.kaTimer.Reset(st.keepalive)
}

// netDeath declares a connection dead and aborts it with the typed
// NetTimeout cause. The first socket-API call that observes the death
// returns the typed error, which an isolating gate's Contain/Classify
// boundary converts into a Trap{Kind: KindNetTimeout} — network death
// then settles against the owning compartment's onfault policy exactly
// like a memory fault.
func (st *Stack) netDeath(s *Socket, pc string, retransmits, probes int, elapsed uint64) {
	st.stats.NetDeaths++
	if st.env.Sink.On() {
		st.emit("net-death", fmt.Sprintf("%s port %d", pc, s.localPort))
	}
	st.abort(s, &fault.NetTimeout{PC: pc, Retransmits: retransmits, Probes: probes, Elapsed: elapsed})
}

// abort fails the connection and wakes every sleeper. Queued received
// data — in-order and reassembly queues both — is discarded: a reset
// connection has nothing left to read, and the rx buffers go back to
// their allocator (the pool's leak accounting counts them otherwise).
func (st *Stack) abort(s *Socket, err error) {
	s.sockErr = err
	s.state = stClosed
	s.rtxTimer.Stop()
	s.zwpTimer.Stop()
	s.kaTimer.Stop()
	for _, sg := range s.rcvQ {
		_ = st.releaseRx(sg.own)
	}
	s.rcvQ = nil
	s.rcvQueued = 0
	st.releaseOOO(s)
	st.semUp(s.rcvSem)
	st.semUp(s.sndSem)
	st.semUp(s.connSem)
	delete(st.conns, s.key())
}

// releaseOOO returns every buffered out-of-order segment to its
// allocator (connection teardown: the gaps will never fill).
func (st *Stack) releaseOOO(s *Socket) {
	for _, sg := range s.oooQ {
		_ = st.releaseRx(sg.own)
	}
	s.oooQ = nil
}

// --- Input path ----------------------------------------------------

// input is the receive-interrupt path: the driver DMAs the frame into
// an rx buffer, then the stack parses, verifies, demuxes and processes
// it. It runs inline on the receiving machine's CPU. The rx path is
// zero-copy: a data segment's buffer is handed to the socket and only
// released once the application has consumed the payload.
func (st *Stack) input(frame []byte) {
	// Driver rx buffer: filled by DMA (no CPU cycles). On the shared
	// data path it comes from the key-0 pool so its descriptor can
	// travel to the app edge by reference; otherwise it is allocated
	// from the netstack compartment's private allocator.
	own, err := st.allocRx(len(frame))
	if err != nil {
		st.stats.DroppedIn++
		return
	}
	fbuf := own.base
	retained := false
	defer func() {
		if !retained {
			_ = st.releaseRx(own)
		}
	}()
	dma, err := st.env.Bytes(fbuf, len(frame))
	if err != nil {
		st.stats.DroppedIn++
		return
	}
	copy(dma, frame)
	// Under copy semantics the driver hands the frame bytes from the
	// rest compartment's rx ring into netstack memory.
	st.crossCopy(&st.rest, copyIn, len(frame))

	st.env.Charge(clock.CostPacketFixed + clock.ChecksumCycles(len(frame)))
	st.env.Hard.OnFrame()
	if err := st.env.Hard.OnAccess(fbuf, min(len(frame), HdrLen), false); err != nil {
		st.stats.DroppedIn++
		return
	}
	h, payload, err := decodeFrame(dma)
	if err != nil {
		if errors.Is(err, ErrBadChecksum) {
			// Injected bit corruption: detected and dropped, never
			// delivered. The sender's retransmission resends clean bytes.
			st.stats.ChecksumDrops++
			if st.env.Sink.On() {
				st.emit("net-checksum-drop", err.Error())
			}
		}
		st.stats.DroppedIn++
		return
	}
	if h.DstIP != st.ip {
		st.stats.DroppedIn++
		return
	}
	st.stats.SegsIn++
	if s, ok := st.conns[keyOf(h.DstPort, h.SrcIP, h.SrcPort)]; ok {
		retained = st.process(s, &h, len(payload), own)
		return
	}
	if h.has(flagSYN) && !h.has(flagACK) {
		if l, ok := st.listeners[h.DstPort]; ok {
			st.acceptSYN(l, &h)
			return
		}
	}
	// No connection: answer with RST (unless it was an RST).
	if !h.has(flagRST) {
		st.sendRST(&h)
	}
}

// acceptSYN creates a half-open socket from a listener.
func (st *Stack) acceptSYN(l *Socket, h *header) {
	if len(l.acceptQ) >= l.backlog {
		st.stats.DroppedIn++
		return
	}
	s := st.newSocket()
	s.state = stSynRcvd
	s.localIP = st.ip
	s.localPort = h.DstPort
	s.remoteIP = h.SrcIP
	s.remotePort = h.SrcPort
	s.rcvNxt = h.Seq + 1
	s.iss = st.nextISN()
	s.sndUna = s.iss
	s.sndNxt = s.iss
	s.sndWnd = int(h.Wnd)
	s.listener = l
	st.conns[s.key()] = s
	if err := st.sendFlags(s, flagSYN|flagACK); err != nil {
		st.abort(s, err)
	}
}

// sendRST answers an unexpected segment.
func (st *Stack) sendRST(h *header) {
	st.stats.RSTsOut++
	rst := header{
		SrcIP: st.ip, DstIP: h.SrcIP,
		SrcPort: h.DstPort, DstPort: h.SrcPort,
		Seq: h.Ack, Ack: h.Seq + uint32(h.PayloadLen),
		Flags: flagRST | flagACK,
	}
	frame := make([]byte, HdrLen)
	if _, err := encodeFrame(frame, rst, nil); err != nil {
		return
	}
	st.chargeTx(len(frame), 0)
	// A reset is a protocol error signal, not data: never doorbelled.
	st.txKick()
	st.transmitNow(frame)
}

// process advances an existing connection's state machine. The frame
// sits in the driver rx buffer `own`; process reports whether it
// took ownership of that buffer (zero-copy data acceptance).
func (st *Stack) process(s *Socket, h *header, payloadLen int, own rxOwn) bool {
	if h.has(flagRST) {
		st.abort(s, ErrConnReset)
		return false
	}
	// Any segment from the peer is proof of life for the keepalive
	// prober (timer-wheel clock; see armKeepalive).
	s.lastActivity = st.scheduler.Timers().Now()
	// ACK processing (sender side).
	if h.has(flagACK) {
		st.processAck(s, h, payloadLen)
	}
	switch s.state {
	case stSynSent:
		if h.has(flagSYN) && h.has(flagACK) && h.Ack == s.iss+1 {
			s.rcvNxt = h.Seq + 1
			s.sndUna = h.Ack
			s.sndWnd = int(h.Wnd)
			s.state = stEstablished
			st.armKeepalive(s)
			_ = st.sendFlags(s, flagACK)
			st.semUp(s.connSem)
		}
		return false
	case stSynRcvd:
		if h.has(flagACK) && h.Ack == s.iss+1 {
			s.state = stEstablished
			st.armKeepalive(s)
			if s.listener != nil {
				s.listener.acceptQ = append(s.listener.acceptQ, s)
				st.semUp(s.listener.acceptSem)
			}
		}
		// Fall through: the ACK may carry data.
	}

	// Data processing (receiver side).
	retained := false
	if payloadLen > 0 {
		retained = st.processData(s, h, payloadLen, own)
	}

	// FIN processing.
	if h.has(flagFIN) && h.Seq+uint32(payloadLen) == s.rcvNxt {
		s.rcvNxt++
		s.rcvEOF = true
		st.releaseOOO(s)
		if s.state == stEstablished {
			s.state = stCloseWait
		} else if s.state == stFinSent {
			s.state = stClosed
			delete(st.conns, s.key())
		}
		_ = st.sendFlags(s, flagACK)
		st.semUp(s.rcvSem)
	}
	return retained
}

// processAck advances sndUna, trims the retransmission queue, feeds the
// RTT estimator, counts duplicate ACKs toward fast retransmit and wakes
// blocked senders.
func (st *Stack) processAck(s *Socket, h *header, payloadLen int) {
	prevWnd := s.sndWnd
	s.sndWnd = int(h.Wnd)
	// An ACK advertising space disarms the zero-window prober.
	if s.sndWnd > 0 {
		s.zwpTimer.Stop()
	}
	switch {
	case seqLess(s.sndUna, h.Ack) && seqLEq(h.Ack, s.sndNxt):
		s.sndUna = h.Ack
		s.dupAcks = 0
		// Drop fully acknowledged segments; the newest one that was never
		// retransmitted yields an RTT sample (Karn's rule excludes
		// retransmitted ranges — the ACK is ambiguous about which copy it
		// answers).
		now := st.env.CPU.Cycles()
		keep := s.rtx[:0]
		for _, r := range s.rtx {
			segEnd := r.seq + uint32(len(r.frame)-HdrLen)
			if r.flags&(flagSYN|flagFIN) != 0 {
				segEnd++
			}
			if seqLess(s.sndUna, segEnd) {
				keep = append(keep, r)
				continue
			}
			if !r.rtxed {
				s.rttSample(now - r.sentAt)
			}
			st.releaseFrame(r.frame)
		}
		clear(s.rtx[len(keep):]) // keep no dead frame reachable
		s.rtx = keep
		if len(s.rtx) == 0 {
			s.rtxTimer.Stop()
		}
		if s.state == stFinSent && s.sndUna == s.sndNxt && s.rcvEOF {
			// Our FIN is acknowledged and the peer's FIN was already
			// received: the connection is fully closed.
			s.state = stClosed
			st.releaseOOO(s)
			delete(st.conns, s.key())
		}
	case h.Ack == s.sndUna && payloadLen == 0 && len(s.rtx) > 0 &&
		int(h.Wnd) == prevWnd && prevWnd > 0 && !h.has(flagSYN) && !h.has(flagFIN):
		// A pure duplicate ACK: same cumulative point, no data, no window
		// news, data outstanding. Three in a row mean the peer keeps
		// receiving (it answers something) but the oldest segment is
		// missing — resend just that one now instead of waiting out the
		// RTO. Window updates and zero-window probe answers don't count.
		s.dupAcks++
		if s.dupAcks == 3 {
			s.dupAcks = 0
			r := &s.rtx[0]
			r.rtxed = true // Karn: the resent range must not be sampled
			st.stats.FastRetransmits++
			st.stats.Retransmits++
			st.stats.SegsOut++
			if st.env.Sink.On() {
				st.emit("net-fast-rtx", fmt.Sprintf("seq %d port %d", r.seq, s.localPort))
			}
			st.chargeTx(len(r.frame), 0)
			st.transmit(r.frame)
		}
	}
	// Window may have opened (or a duplicate ACK refreshed it).
	st.semUp(s.sndSem)
}

// oooCap bounds the per-socket out-of-order reassembly queue (segments
// held while a gap waits on retransmission). Past it, further
// out-of-order arrivals drop — the retransmission path still recovers.
const oooCap = 16

// processData accepts payload into the socket's receive queue,
// zero-copy: the socket takes ownership of the rx buffer and points at
// the payload inside it. In-order data queues directly (and pulls any
// newly contiguous reassembly segments behind it); ahead-of-sequence
// data parks in the bounded reassembly queue with a duplicate ACK
// signalling the gap, so a reordered link costs dup-ACKs instead of an
// RTO stall per swap. Stale or unbufferable segments drop with a
// duplicate ACK. It reports whether it retained the rx buffer.
func (st *Stack) processData(s *Socket, h *header, n int, own rxOwn) bool {
	if h.Seq != s.rcvNxt {
		if seqLess(s.rcvNxt, h.Seq) && len(s.oooQ) < oooCap &&
			int(h.Seq-s.rcvNxt)+n <= s.rcvWndCap && !s.oooHas(h.Seq) {
			// Ahead of sequence, within the buffer's reach, novel: hold it
			// for reassembly. The duplicate ACK still goes out — the
			// sender's fast-retransmit counter is how the gap gets filled
			// quickly.
			st.stats.OOOQueued++
			s.oooQ = append(s.oooQ, seg{own: own, addr: own.base + HdrLen, n: n,
				seq: h.Seq, at: st.env.CPU.Cycles()})
			_ = st.sendFlags(s, flagACK)
			return true
		}
		st.stats.DroppedIn++
		_ = st.sendFlags(s, flagACK) // duplicate ACK
		return false
	}
	if n > s.rcvWnd() {
		// Beyond our advertised window: drop.
		st.stats.DroppedIn++
		_ = st.sendFlags(s, flagACK)
		return false
	}
	// The arrival stamp is taken here, on the rx path, independent of
	// when the application thread gets scheduled: head-of-queue age is
	// the overload signal overload-aware servers budget against.
	s.rcvQ = append(s.rcvQ, seg{own: own, addr: own.base + HdrLen, n: n,
		seq: h.Seq, at: st.env.CPU.Cycles()})
	s.rcvQueued += n
	s.rcvNxt += uint32(n)
	st.stats.BytesIn += uint64(n)
	if len(s.oooQ) > 0 {
		st.oooDrain(s)
	}
	st.sendAck(s)
	st.semUp(s.rcvSem)
	return true
}

// oooHas reports whether a reassembly segment with this sequence number
// is already queued (a duplicated out-of-order arrival).
func (s *Socket) oooHas(seq uint32) bool {
	for _, sg := range s.oooQ {
		if sg.seq == seq {
			return true
		}
	}
	return false
}

// oooDrain moves newly contiguous reassembly segments into the receive
// queue and discards entries the advancing cumulative point made stale.
func (st *Stack) oooDrain(s *Socket) {
	for {
		found := -1
		for i, sg := range s.oooQ {
			if sg.seq == s.rcvNxt {
				found = i
				break
			}
		}
		if found < 0 {
			break
		}
		sg := s.oooQ[found]
		s.oooQ = append(s.oooQ[:found], s.oooQ[found+1:]...)
		s.rcvQ = append(s.rcvQ, sg)
		s.rcvQueued += sg.n
		s.rcvNxt += uint32(sg.n)
		st.stats.BytesIn += uint64(sg.n)
	}
	keep := s.oooQ[:0]
	for _, sg := range s.oooQ {
		if !seqLess(s.rcvNxt, sg.seq) {
			// At or behind the cumulative point: a retransmission beat it
			// here. Nothing left to reassemble from it.
			_ = st.releaseRx(sg.own)
			continue
		}
		keep = append(keep, sg)
	}
	s.oooQ = keep
}
