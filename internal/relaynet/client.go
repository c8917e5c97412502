package relaynet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"dmw/internal/transport"
	"dmw/internal/wire"
)

// Client is an agent's TCP connection to a relay. It implements
// transport.Conn, so the DMW protocol engine (dmw.RunAgentSession) runs
// over it unchanged. A Client is used by a single goroutine.
type Client struct {
	id, n   int
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	timeout time.Duration
	crashed bool
	err     error
}

// Interface conformance.
var _ transport.Conn = (*Client)(nil)

// DialOption customizes Dial.
type DialOption func(*Client)

// WithRoundTimeout bounds how long FinishRound waits for the other
// agents (default 60s). Real deployments waiting on humans may need
// more; tests want less.
func WithRoundTimeout(d time.Duration) DialOption {
	return func(c *Client) { c.timeout = d }
}

// Dial connects agent id to the relay at addr and performs the hello
// handshake.
func Dial(addr string, id int, opts ...DialOption) (*Client, error) {
	if id < 0 {
		return nil, fmt.Errorf("relaynet: negative agent id %d", id)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("relaynet: dial %s: %w", addr, err)
	}
	c := &Client{
		id:      id,
		conn:    conn,
		br:      bufio.NewReader(conn),
		bw:      bufio.NewWriter(conn),
		timeout: 60 * time.Second,
	}
	for _, opt := range opts {
		opt(c)
	}
	hello := make([]byte, 4)
	binary.BigEndian.PutUint32(hello, uint32(id))
	if err := wire.WriteSocketFrame(c.bw, fHello, hello, maxFrame); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(c.timeout))
	ftype, body, err := wire.ReadSocketFrame(c.br, maxFrame)
	if err != nil || ftype != fWelcome || len(body) != 4 {
		_ = conn.Close()
		return nil, errors.New("relaynet: handshake failed")
	}
	c.n = int(binary.BigEndian.Uint32(body))
	if id >= c.n {
		_ = conn.Close()
		return nil, fmt.Errorf("relaynet: agent id %d out of range for %d-agent relay", id, c.n)
	}
	return c, nil
}

// ID implements transport.Conn.
func (c *Client) ID() int { return c.id }

// N returns the number of agents the relay coordinates.
func (c *Client) N() int { return c.n }

// Err returns the first transport error the client hit (the protocol
// engine converts missing deliveries into aborts; Err disambiguates
// network failure from peer misbehaviour afterwards).
func (c *Client) Err() error { return c.err }

// Send implements transport.Conn.
func (c *Client) Send(to int, kind transport.Kind, task int, payload any) error {
	if c.crashed {
		return nil
	}
	if to < 0 || to >= c.n {
		return fmt.Errorf("relaynet: recipient %d out of range", to)
	}
	if to == c.id {
		return nil
	}
	body, err := wire.EncodeMessage(transport.Message{
		From: c.id, To: to, Kind: kind, Task: task, Payload: payload,
	})
	if err != nil {
		return err
	}
	if err := wire.WriteSocketFrame(c.bw, fMsg, body, maxFrame); err != nil {
		c.fail(err)
		return err
	}
	return nil
}

// Broadcast implements transport.Conn (n-1 point-to-point sends).
func (c *Client) Broadcast(kind transport.Kind, task int, payload any) error {
	for to := 0; to < c.n; to++ {
		if to == c.id {
			continue
		}
		if err := c.Send(to, kind, task, payload); err != nil {
			return err
		}
	}
	return nil
}

// FinishRound implements transport.Conn: it flushes pending sends,
// signals the barrier, and reads deliveries until the round-end marker.
// On a network failure it records the error and returns nil, which the
// protocol engine treats as universally withheld messages (abort).
func (c *Client) FinishRound() []transport.Message {
	if c.crashed || c.err != nil {
		return nil
	}
	if err := wire.WriteSocketFrame(c.bw, fFinish, nil, maxFrame); err != nil {
		c.fail(err)
		return nil
	}
	if err := c.bw.Flush(); err != nil {
		c.fail(err)
		return nil
	}
	var msgs []transport.Message
	_ = c.conn.SetReadDeadline(time.Now().Add(c.timeout))
	for {
		ftype, body, err := wire.ReadSocketFrame(c.br, maxFrame)
		if err != nil {
			c.fail(err)
			return nil
		}
		switch ftype {
		case fMsg:
			m, err := wire.DecodeMessage(body)
			if err != nil {
				c.fail(err)
				return nil
			}
			msgs = append(msgs, m)
		case fRoundEnd:
			transport.SortMessages(msgs)
			return msgs
		default:
			c.fail(fmt.Errorf("relaynet: unexpected frame %d", ftype))
			return nil
		}
	}
}

// Crash implements transport.Conn: announce fail-stop and drop the link.
func (c *Client) Crash() {
	if c.crashed {
		return
	}
	c.crashed = true
	_ = wire.WriteSocketFrame(c.bw, fCrash, nil, maxFrame)
	_ = c.bw.Flush()
	_ = c.conn.Close()
}

// Close releases the connection (normal end of session).
func (c *Client) Close() error {
	if c.crashed {
		return nil
	}
	c.crashed = true
	return c.conn.Close()
}

func (c *Client) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}
