// Package relaynet deploys DMW over real TCP sockets: one process per
// agent, all connected to a relay that implements the synchronous-round
// fabric of package transport across machine boundaries.
//
// Trust model: the relay is trusted for LIVENESS and ORDERING only, never
// for the outcome — every protocol value that crosses it is either
// committed to (shares are verified against published commitments,
// equations (7)-(9)) or self-certifying against those commitments
// (equations (11) and (13)), so a relay that tampers with payloads causes
// detectable aborts, exactly like any other deviating participant. This
// is weaker than the paper's abstract "broadcast channel + private
// channels" assumption in one respect: the relay sees the shares'
// ciphertext-free values, so deployments wanting the paper's full privacy
// guarantee should add pairwise transport encryption underneath (out of
// scope here, as the paper keeps the network obedient).
//
// Wire protocol (all frames length-prefixed):
//
//	frame   := len:u32 type:u8 body
//	hello   := id:u32                  client -> relay
//	welcome := n:u32                   relay -> client
//	msg     := wire.EncodeMessage      both directions
//	finish  :=                         client -> relay (round barrier)
//	roundend:=                         relay -> client (deliveries done)
//	crash   :=                         client -> relay (fail-stop)
package relaynet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"

	"dmw/internal/dmw"
	"dmw/internal/payment"
	"dmw/internal/transport"
	"dmw/internal/wire"
)

// Frame types.
const (
	fHello uint8 = iota + 1
	fWelcome
	fMsg
	fFinish
	fRoundEnd
	fCrash
)

// maxFrame bounds a single frame (a commitments payload at 512-bit p and
// large sigma stays well under this).
const maxFrame = 1 << 22

// Relay is the round-fabric server for one mechanism execution.
type Relay struct {
	n  int
	ln net.Listener

	mu       sync.Mutex
	round    transport.Round
	conns    []net.Conn
	writers  []*bufio.Writer
	joined   int
	finished []bool
	claims   map[int][]int64
	closed   bool
	err      error

	done chan struct{}
}

// Serve starts a relay for n agents on the listener. It returns
// immediately; Wait blocks until every agent has disconnected.
func Serve(ln net.Listener, n int) (*Relay, error) {
	if n < 2 {
		return nil, fmt.Errorf("relaynet: need at least 2 agents, got %d", n)
	}
	r := &Relay{
		n:        n,
		ln:       ln,
		round:    transport.NewRound(n, nil),
		conns:    make([]net.Conn, n),
		writers:  make([]*bufio.Writer, n),
		finished: make([]bool, n),
		claims:   make(map[int][]int64),
		done:     make(chan struct{}),
	}
	go r.acceptLoop()
	return r, nil
}

// Addr returns the listener address.
func (r *Relay) Addr() net.Addr { return r.ln.Addr() }

// Stats returns a snapshot of the message accounting (same cost model as
// the in-memory fabric: every routed point-to-point message counts once).
func (r *Relay) Stats() *transport.Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.round.Stats()
}

// Claims returns the Phase IV payment claims the relay observed, ready
// for settlement by the payment infrastructure.
func (r *Relay) Claims() []payment.Claim {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]int, 0, len(r.claims))
	for id := range r.claims {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]payment.Claim, 0, len(ids))
	for _, id := range ids {
		out = append(out, payment.Claim{From: id, Payments: r.claims[id]})
	}
	return out
}

// Wait blocks until every connected agent has disconnected (the session
// is over) or the relay fails.
func (r *Relay) Wait() error {
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Close shuts the relay down.
func (r *Relay) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	conns := append([]net.Conn(nil), r.conns...)
	r.mu.Unlock()
	err := r.ln.Close()
	if errors.Is(err, net.ErrClosed) {
		err = nil // the n-th agent's hello closed it
	}
	for _, c := range conns {
		if c != nil {
			_ = c.Close()
		}
	}
	select {
	case <-r.done:
	default:
		close(r.done)
	}
	return err
}

// acceptLoop accepts connections until the n-th agent's hello closes the
// listener: a refused hello takes no seat.
func (r *Relay) acceptLoop() {
	var wg sync.WaitGroup
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			r.mu.Lock()
			full := r.joined == r.n
			r.mu.Unlock()
			if full {
				break
			}
			r.fail(fmt.Errorf("relaynet: accept: %w", err))
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.handle(conn)
		}()
	}
	go func() {
		wg.Wait()
		r.mu.Lock()
		if !r.closed {
			r.closed = true
			close(r.done)
		}
		r.mu.Unlock()
	}()
}

func (r *Relay) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = err
	}
	if !r.closed {
		r.closed = true
		close(r.done)
	}
}

// handle runs one client connection: hello handshake, then the message
// loop until disconnect.
func (r *Relay) handle(conn net.Conn) {
	br := bufio.NewReader(conn)
	ftype, body, err := wire.ReadSocketFrame(br, maxFrame)
	if err != nil || ftype != fHello || len(body) != 4 {
		_ = conn.Close()
		return
	}
	id := int(binary.BigEndian.Uint32(body))
	if id < 0 || id >= r.n {
		_ = conn.Close()
		return
	}
	bw := bufio.NewWriter(conn)
	r.mu.Lock()
	if r.conns[id] != nil {
		r.mu.Unlock()
		_ = conn.Close()
		return
	}
	r.conns[id] = conn
	r.writers[id] = bw
	r.joined++
	full := r.joined == r.n
	welcome := make([]byte, 4)
	binary.BigEndian.PutUint32(welcome, uint32(r.n))
	if err := wire.WriteSocketFrame(bw, fWelcome, welcome, maxFrame); err == nil {
		_ = bw.Flush()
	}
	r.mu.Unlock()
	if full {
		_ = r.ln.Close()
	}

	defer func() {
		_ = conn.Close()
		r.markCrashed(id)
	}()
	for {
		ftype, body, err := wire.ReadSocketFrame(br, maxFrame)
		if err != nil {
			return // disconnect -> deferred crash handling
		}
		switch ftype {
		case fMsg:
			m, err := wire.DecodeMessage(body)
			if err != nil || m.From != id {
				return // protocol violation: drop the client
			}
			r.route(m)
		case fFinish:
			r.finish(id)
		case fCrash:
			return
		default:
			return
		}
	}
}

// route queues a point-to-point message for end-of-round delivery and
// records payment claims for settlement.
func (r *Relay) route(m transport.Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.round.Send(m.From, m.To, m.Kind, m.Task, m.Payload); err != nil || m.To == m.From {
		return
	}
	if p, ok := m.Payload.(*dmw.PaymentClaimPayload); ok {
		if _, seen := r.claims[m.From]; !seen {
			r.claims[m.From] = append([]int64(nil), p.Payments...)
		}
	}
}

// finish marks the agent's round as complete and delivers when the
// barrier fills. The client blocks on fRoundEnd, so the relay does not
// hold its reader back.
func (r *Relay) finish(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.round.Crashed(id) {
		return
	}
	r.finished[id] = true
	r.maybeDeliverLocked()
}

// markCrashed handles a disconnect: the agent leaves all future rounds.
func (r *Relay) markCrashed(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.round.Crashed(id) {
		return
	}
	r.round.Crash(id)
	r.maybeDeliverLocked()
}

// maybeDeliverLocked ends the round when every agent has joined and every
// live one has finished, and writes each live agent its deliveries and
// the round-end marker. Caller holds r.mu.
func (r *Relay) maybeDeliverLocked() {
	// Early finishers wait for slow joiners.
	if r.joined < r.n {
		return
	}
	live, fin := 0, 0
	for i := 0; i < r.n; i++ {
		if !r.round.Crashed(i) {
			live++
			if r.finished[i] {
				fin++
			}
		}
	}
	if live == 0 || fin < live {
		return
	}
	r.round.Deliver()
	for to := 0; to < r.n; to++ {
		r.finished[to] = false
		if r.round.Crashed(to) {
			continue
		}
		bw := r.writers[to]
		ok := true
		for _, m := range r.round.Inbox(to) {
			body, err := wire.EncodeMessage(m)
			if err != nil {
				continue
			}
			if err := wire.WriteSocketFrame(bw, fMsg, body, maxFrame); err != nil {
				ok = false
				break
			}
		}
		if ok {
			if err := wire.WriteSocketFrame(bw, fRoundEnd, nil, maxFrame); err == nil {
				_ = bw.Flush()
			}
		}
	}
}
