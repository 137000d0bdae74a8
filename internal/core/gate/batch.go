package gate

import (
	"fmt"

	"flexos/internal/clock"
	"flexos/internal/fault"
)

// Batched gate calls: the crossing-amortization ABI.
//
// A crossing's fixed cost (WRPKRU pair, VM notification round trip) is
// the dominant term of every isolating image's overhead, and it is paid
// per call. CallBatch carries N frames through ONE crossing: the gate
// enters the callee domain once, dispatches each frame for a small
// fixed cost, and returns once. Direct calls and CHERI gain nothing
// from batching (their per-call cost is already a handful of cycles),
// so they simply do not implement BatchGate and the registry loops;
// the MPK and VM-RPC gates amortize.
//
// Isolation semantics stay per-frame: each frame runs inside its own
// trap boundary (one trapped frame aborts only that frame), deadline
// checks apply at each frame's dispatch, and the supervisor layered
// above applies admission control and breaker feedback frame by frame.

// BatchCall is one frame of a batched gate call: the frame, the
// callee body it dispatches to, and the frame's outcome. A frame whose
// Err is already set when the batch starts was refused before the gate
// (shed, failed fast by an open breaker): the gate skips it, so it
// neither adds words to the crossing nor runs.
type BatchCall struct {
	Frame CallFrame
	Fn    func() error
	Err   error
}

// BatchGate is implemented by gates whose crossing cost can be
// amortized over several frames. CallBatch runs each live frame's Fn
// under its Frame in the `to` domain, paying the domain crossing once,
// and stores the frame's outcome in its Err (nil for success). A
// non-nil enter runs at each live frame's entry, inside that frame's
// trap boundary: the registry fires its fault injector there.
type BatchGate interface {
	Gate
	CallBatch(from, to *Domain, calls []BatchCall, enter func())
}

// BatchCrossingCost reports the fixed cycle cost of carrying n frames
// across a backend's boundary: one crossing plus n dispatches for the
// amortizing backends, n full crossings for the rest. It is the static
// counterpart of CallBatch, pinned against the real gates by the
// consistency test; the explorer's cost model charges CrossingCost per
// call and does not use it.
func BatchCrossingCost(b Backend, n int) uint64 {
	if n <= 0 {
		return 0
	}
	switch b {
	case MPKShared, MPKSwitched, VMRPC:
		return CrossingCost(b) + uint64(n)*clock.CostBatchDispatch
	default:
		// Direct calls and CHERI degenerate to a loop.
		return uint64(n) * CrossingCost(b)
	}
}

// CallBatch carries the whole batch through one PKRU round trip. Entry
// marshals every live frame's words at once (switched stacks copy the
// summed entry+payload words in one go); each frame then dispatches
// inside its own trap boundary; the return path restores the caller
// domain once.
func (g *mpkGate) CallBatch(from, to *Domain, calls []BatchCall, enter func()) {
	// Frames whose descriptors the callee could not reach are refused
	// before the crossing, exactly like the single-call path; the rest
	// of the batch still crosses. From here on a nil Err marks a frame
	// still live.
	words, live := 0, false
	for i := range calls {
		c := &calls[i]
		if c.Err != nil {
			continue
		}
		if !g.switched {
			if err := g.checkSharedBufs(c.Frame); err != nil {
				c.Err = fmt.Errorf("gate %s->%s: %w", from.Name, to.Name, err)
				continue
			}
		}
		live = true
		words += c.Frame.EntryWords() + c.Frame.PayloadWords()
	}
	if !live {
		return
	}
	if err := g.pass(from, to, to.PKRU, words, "gate %s->%s: %w"); err != nil {
		trapLive(calls, err)
		return
	}
	retWords := dispatch(g.clk, clock.CompGate, from, to, calls, enter)
	if err := g.pass(from, to, from.PKRU, retWords, "gate %s<-%s return: %w"); err != nil {
		trapLive(calls, err)
	}
}

// dispatch runs every live frame of a batch in the callee domain,
// charging comp the dispatch cost of each, and returns the return
// words of the frames that ran. Each frame gets its own trap boundary,
// entered after enter when one is given: one trapped frame aborts only
// itself, the rest of the batch completes.
func dispatch(clk *clock.Machine, comp clock.Component, from, to *Domain, calls []BatchCall, enter func()) int {
	retWords := 0
	for i := range calls {
		c := &calls[i]
		if c.Err != nil {
			continue
		}
		// Per-frame deadline: earlier frames' work advances the clock,
		// so a late frame in the batch can still be refused here.
		if c.Frame.Deadline != 0 {
			if c.Err = deadlineCheck(clk, clock.CostBatchDispatch, from, to, c.Frame.Deadline); c.Err != nil {
				continue
			}
		}
		clk.Charge(comp, clock.CostBatchDispatch)
		fn := c.Fn
		if enter != nil {
			fn = func() error { enter(); return c.Fn() }
		}
		if c.Err = fault.Catch(to.Name, fn); c.Err != nil {
			c.Err = fault.Classify(to.Name, pcOf(from, to), c.Err)
		}
		retWords += c.Frame.RetWords
	}
	return retWords
}

// trapLive fails every frame of a batch that has not failed yet with
// trap: a sealed-WRPKRU rejection on entry or return strands them all.
func trapLive(calls []BatchCall, trap error) {
	for i := range calls {
		if calls[i].Err == nil {
			calls[i].Err = trap
		}
	}
}

// CallBatch marshals every live frame's request into the shared ring
// under one notification pair: one VM exit carries N requests over, one
// carries N responses back. This is where batching pays the most —
// CostVMNotify dwarfs everything else in the RPC crossing. The batch
// is one RPC to the callee VM: it waits behind, and then holds, the
// single endpoint exactly as Call does.
func (g *rpcGate) CallBatch(from, to *Domain, calls []BatchCall, enter func()) {
	g.stall()
	words := 0
	for i := range calls {
		if c := &calls[i]; c.Err == nil {
			words += c.Frame.EntryWords() + c.Frame.PayloadWords()
		}
	}
	g.clk.Charge(clock.CompVMM, clock.CostVMNotify+clock.CostVMRPCFixed+
		uint64(words)*clock.CostParamCopyPerWord)
	retWords := dispatch(g.clk, clock.CompVMM, from, to, calls, enter)
	g.clk.Charge(clock.CompVMM, clock.CostVMNotify+
		uint64(retWords)*clock.CostParamCopyPerWord)
	g.busyUntil = g.clk.Cycles()
}
