// Package centralnet deploys the CENTRALIZED MinWork mechanism over TCP:
// a trusted auctioneer server accepts each agent's bid vector and returns
// the allocation and payments. It is the paper's comparison target made
// concrete — one request/response per agent, Theta(mn) communication —
// and exists so the Table 1 comparison can be measured on the same
// network substrate as DMW rather than taken analytically.
//
// The server embodies every drawback the paper lists for the centralized
// design: all agents must trust it with their true values (it sees every
// bid in the clear), it is a communication and computation bottleneck,
// and it is a single point of failure.
//
// Wire protocol (frames as in relaynet: len:u32 type:u8 body):
//
//	bid    := id:u32 m:u16 int64*m      client -> server
//	result := m:u16 winner:u32*m secondPrice:i64*m payment:i64
//	                                    server -> client
package centralnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dmw/internal/mechanism"
	"dmw/internal/sched"
	"dmw/internal/wire"
)

// Frame types.
const (
	fBid uint8 = iota + 1
	fResult
)

const maxFrame = 1 << 20

// Result is what each agent learns from the auctioneer.
type Result struct {
	// Winner[j] is task j's assigned agent.
	Winner []int
	// SecondPrice[j] is task j's clearing price.
	SecondPrice []int64
	// Payment is this agent's total payment.
	Payment int64
}

// Server is the trusted auctioneer.
type Server struct {
	n, m int
	ln   net.Listener

	mu       sync.Mutex
	bids     *sched.Instance
	received []bool
	conns    []net.Conn
	done     chan struct{}
	err      error
	messages int64
}

// Serve starts an auctioneer for n agents and m tasks.
func Serve(ln net.Listener, n, m int) (*Server, error) {
	if n < 2 || m < 1 {
		return nil, fmt.Errorf("centralnet: invalid dimensions n=%d m=%d", n, m)
	}
	s := &Server{
		n: n, m: m, ln: ln,
		bids:     sched.NewInstance(n, m),
		received: make([]bool, n),
		conns:    make([]net.Conn, n),
		done:     make(chan struct{}),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Messages returns the point-to-point message count (one bid frame per
// agent, m values each, counted per the paper's per-value convention:
// Theta(mn) total, plus n result messages).
func (s *Server) Messages() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.messages
}

// Wait blocks until the auction completes (all bids in, results sent).
func (s *Server) Wait() error {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close shuts the server down.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.mu.Lock()
	for _, c := range s.conns {
		if c != nil {
			_ = c.Close()
		}
	}
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	s.mu.Unlock()
	return err
}

func (s *Server) acceptLoop() {
	for i := 0; i < s.n; i++ {
		conn, err := s.ln.Accept()
		if err != nil {
			s.fail(err)
			return
		}
		go s.handle(conn)
	}
}

func (s *Server) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
	select {
	case <-s.done:
	default:
		close(s.done)
	}
}

func (s *Server) handle(conn net.Conn) {
	br := bufio.NewReader(conn)
	ftype, body, err := wire.ReadSocketFrame(br, maxFrame)
	if err != nil || ftype != fBid || len(body) < 6 {
		_ = conn.Close()
		return
	}
	id := int(binary.BigEndian.Uint32(body))
	m := int(binary.BigEndian.Uint16(body[4:]))
	if id < 0 || id >= s.n || m != s.m || len(body) != 6+8*m {
		_ = conn.Close()
		return
	}
	row := make([]int64, m)
	for j := 0; j < m; j++ {
		row[j] = int64(binary.BigEndian.Uint64(body[6+8*j:]))
	}
	s.mu.Lock()
	if s.received[id] {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	s.received[id] = true
	s.conns[id] = conn
	copy(s.bids.Time[id], row)
	s.messages += int64(m) // paper counts one message per bid value
	all := true
	for _, r := range s.received {
		all = all && r
	}
	s.mu.Unlock()
	if all {
		s.finish()
	}
}

// finish runs MinWork and sends every agent its result.
func (s *Server) finish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	out, err := mechanism.MinWork{}.Run(s.bids)
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		close(s.done)
		return
	}
	for id, conn := range s.conns {
		body := make([]byte, 2+s.m*(4+8)+8)
		binary.BigEndian.PutUint16(body, uint16(s.m))
		off := 2
		for j := 0; j < s.m; j++ {
			binary.BigEndian.PutUint32(body[off:], uint32(out.Schedule.Agent[j]))
			off += 4
			binary.BigEndian.PutUint64(body[off:], uint64(out.SecondPrice[j]))
			off += 8
		}
		binary.BigEndian.PutUint64(body[off:], uint64(out.Payments[id]))
		bw := bufio.NewWriter(conn)
		if err := wire.WriteSocketFrame(bw, fResult, body, maxFrame); err == nil {
			_ = bw.Flush()
		}
		s.messages++
		_ = conn.Close()
	}
	close(s.done)
}

// SubmitBids connects as agent id, submits its private bid vector, and
// waits for the auctioneer's result.
func SubmitBids(addr string, id int, bids []int64, timeout time.Duration) (*Result, error) {
	if len(bids) == 0 {
		return nil, errors.New("centralnet: no bids")
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))

	m := len(bids)
	body := make([]byte, 6+8*m)
	binary.BigEndian.PutUint32(body, uint32(id))
	binary.BigEndian.PutUint16(body[4:], uint16(m))
	for j, b := range bids {
		binary.BigEndian.PutUint64(body[6+8*j:], uint64(b))
	}
	bw := bufio.NewWriter(conn)
	if err := wire.WriteSocketFrame(bw, fBid, body, maxFrame); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}

	ftype, resp, err := wire.ReadSocketFrame(bufio.NewReader(conn), maxFrame)
	if err != nil {
		return nil, err
	}
	if ftype != fResult || len(resp) < 2 {
		return nil, errors.New("centralnet: malformed result")
	}
	rm := int(binary.BigEndian.Uint16(resp))
	if len(resp) != 2+rm*12+8 {
		return nil, errors.New("centralnet: truncated result")
	}
	res := &Result{Winner: make([]int, rm), SecondPrice: make([]int64, rm)}
	off := 2
	for j := 0; j < rm; j++ {
		res.Winner[j] = int(binary.BigEndian.Uint32(resp[off:]))
		off += 4
		res.SecondPrice[j] = int64(binary.BigEndian.Uint64(resp[off:]))
		off += 8
	}
	res.Payment = int64(binary.BigEndian.Uint64(resp[off:]))
	return res, nil
}
