package dmw

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"

	"dmw/internal/transport"
)

// Echo verification hardens DMW against an equivocating broadcast
// medium. The paper assumes an obedient broadcast channel (Theorem 3
// rests on it); the TCP relay preserves non-equivocation only if the
// relay itself is honest. With EchoVerification enabled, agents append a
// digest-exchange round after every round that carries published values:
// each agent hashes the publications it received (plus its own) and
// broadcasts the digest; any mismatch proves someone saw a different
// "broadcast" and the auction aborts. This is the classic echo step of
// reliable-broadcast protocols, cut down to one round because the
// protocol already aborts on any inconsistency.
//
// Private point-to-point shares are excluded from the digest — they
// legitimately differ per recipient.

// EchoPayload carries the digest of a round's published messages.
type EchoPayload struct {
	Digest [sha256.Size]byte
}

// WireSize implements transport.Sizer.
func (p EchoPayload) WireSize() int { return sha256.Size }

var _ transport.Sizer = EchoPayload{}

// publishedKind reports whether a message kind is a publication (subject
// to echo verification) rather than a private transmission.
func publishedKind(k transport.Kind) bool {
	switch k {
	case transport.KindCommitments, transport.KindLambdaPsi,
		transport.KindDisclosure, transport.KindSecondPrice,
		transport.KindAbort:
		return true
	default:
		return false
	}
}

// digestPublished canonically hashes the published messages of one round:
// messages are sorted by (From, Kind, Task) — the transport's delivery
// order — and each contributes its header plus a canonical payload
// serialization.
func digestPublished(msgs []transport.Message) [sha256.Size]byte {
	sorted := make([]transport.Message, 0, len(msgs))
	for _, m := range msgs {
		if publishedKind(m.Kind) {
			sorted = append(sorted, m)
		}
	}
	transport.SortMessages(sorted)
	h := sha256.New()
	var hdr [12]byte
	for _, m := range sorted {
		binary.BigEndian.PutUint32(hdr[0:], uint32(m.From))
		binary.BigEndian.PutUint32(hdr[4:], uint32(m.Kind))
		binary.BigEndian.PutUint32(hdr[8:], uint32(m.Task))
		h.Write(hdr[:])
		hashPayload(h, m.Payload)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// hashPayload writes a canonical serialization of a published payload.
func hashPayload(h interface{ Write([]byte) (int, error) }, payload any) {
	writeBig := func(v *big.Int) {
		if v == nil {
			h.Write([]byte{0xFF})
			return
		}
		b := v.Bytes()
		var ln [4]byte
		binary.BigEndian.PutUint32(ln[:], uint32(len(b)))
		h.Write(ln[:])
		h.Write(b)
	}
	switch p := payload.(type) {
	case CommitmentsPayload:
		if p.C == nil {
			h.Write([]byte{0xFE})
			return
		}
		for _, vec := range [][]*big.Int{p.C.O, p.C.Q, p.C.R} {
			for _, v := range vec {
				writeBig(v)
			}
		}
	case *LambdaPsiPayload:
		writeBig(p.Lambda)
		writeBig(p.Psi)
	case *DisclosurePayload:
		for _, v := range p.F {
			writeBig(v)
		}
	case *SecondPricePayload:
		writeBig(p.Lambda)
		writeBig(p.Psi)
	case AbortPayload:
		h.Write([]byte(p.Reason))
	default:
		h.Write([]byte{0xFD})
	}
}

// echo ends a delivered round: with echo verification off the agent goes
// straight on to next; with it on, it first broadcasts the digest of the
// round's published values (its own publications included) and holds the
// round's deliveries for next, which runs once the digest round is
// delivered and matches (stepEcho). Deviating digests are injected
// through the strategy's TamperEcho hook.
func (a *agentRun) echo(inbox []transport.Message, next state) (yield, error) {
	a.state = next
	if !a.env.echo {
		return yieldNext, nil
	}
	a.held = append(append(a.held[:0], inbox...), a.published...)
	a.digest = digestPublished(a.held)
	a.held = a.held[:len(inbox)]
	a.published = a.published[:0]
	if a.hooks.TamperEcho != nil {
		a.hooks.TamperEcho(a.env.task, a.digest[:])
	}
	a.afterEcho, a.state = next, stEcho
	return yieldRound, a.ep.Broadcast(transport.KindEcho, a.env.task, EchoPayload{Digest: a.digest})
}

// stepEcho checks a delivered digest round and hands the held round to
// the state after it. Any peer digest that differs, or an abort seen by
// then, makes the agent disengage (crash) so the remaining agents abort
// on missing data; the auction then ends on that reason, except after an
// announced abort, which ends on its own.
func (a *agentRun) stepEcho(inbox []transport.Message) (yield, []transport.Message) {
	a.logf("echo round: broadcast digest of published values")
	reason := ""
scan:
	for _, m := range inbox {
		if m.Task != a.env.task {
			continue
		}
		switch p := m.Payload.(type) {
		case EchoPayload:
			if p.Digest != a.digest {
				reason = "echo digest mismatch with agent (equivocation or tampered broadcast)"
				break scan
			}
		case AbortPayload:
			a.abortSeen = true
		}
	}
	if reason == "" && a.abortSeen {
		reason = "peer aborted during echo verification"
	}
	a.state = a.afterEcho
	if reason != "" {
		a.ep.Crash()
		if a.state != stAborted {
			return a.finish(a.aborted(reason)), nil
		}
	}
	return yieldNext, a.held
}
