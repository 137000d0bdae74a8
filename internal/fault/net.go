package fault

import "fmt"

// NetTimeout is the structured cause of a transport death: the network
// stack exhausted its recovery budget for a connection — every
// retransmission of the oldest unacknowledged segment timed out, the
// zero-window prober saw the peer's window stay shut, or the keepalive
// prober gave up on an idle peer — and aborted the socket.
//
// It is the network analogue of DeadlineExceeded: a typed error the
// stack returns (exactly once per socket) through the socket API so the
// isolating gate's Contain/Classify boundary converts it into a
// Trap{Kind: KindNetTimeout} against the owning compartment, where the
// configured onfault policy takes over. Subsequent calls on the dead
// socket return a plain closed-connection error, so a restart policy's
// replay settles clean and counts as a recovery while the application's
// own retry logic re-establishes the connection.
type NetTimeout struct {
	// PC is the symbolic location that declared death: "netstack:rtx",
	// "netstack:zwp" (zero-window probing) or "netstack:keepalive".
	PC string
	// Retransmits is how many times the oldest segment was retransmitted
	// before the stack gave up (0 for a prober's death).
	Retransmits int
	// Probes is how many zero-window or keepalive probes went
	// unanswered (0 for retransmit exhaustion).
	Probes int
	// Elapsed is the timer-wheel ticks from the start of the losing
	// recovery attempt — the retransmission or zero-window timer's
	// first arming, or the connection's last activity for keepalive —
	// to the declaration of death.
	Elapsed uint64
}

// Error implements error.
func (e *NetTimeout) Error() string {
	if e.Probes == 0 {
		return fmt.Sprintf("fault: net timeout at %s: connection dead after %d retransmits (%d ticks)",
			e.PC, e.Retransmits, e.Elapsed)
	}
	probe := "keepalive"
	if e.PC == "netstack:zwp" {
		probe = "zero-window"
	}
	return fmt.Sprintf("fault: net timeout at %s: peer dead after %d %s probes (%d ticks)",
		e.PC, e.Probes, probe, e.Elapsed)
}
