package gateway

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// The relay arena: every buffered backend response body (submits, batch
// scatter-gather shards, job reads) lands in a pooled buffer instead of
// a fresh io.ReadAll allocation. At gateway throughput the response
// bodies are the dominant per-request allocation, and they have a
// perfectly recyclable lifetime — read fully, relayed (or decoded),
// dropped — so the arena turns the steady state into zero-allocation
// relaying. A buffer has exactly one holder between get and release.

// maxPooledRelayBuf caps the capacity retained by the pool: a rare
// multi-megabyte transcript relay must not pin its buffer forever under
// a pool slot that mostly serves kilobyte job views.
const maxPooledRelayBuf = 1 << 20

// relayBuf is one pooled response buffer.
type relayBuf struct {
	bb bytes.Buffer
}

type relayPool struct {
	pool   sync.Pool
	gets   atomic.Int64 // acquisitions (hits + misses)
	misses atomic.Int64 // acquisitions that had to allocate
}

func newRelayPool() *relayPool {
	p := &relayPool{}
	p.pool.New = func() any {
		p.misses.Add(1)
		return &relayBuf{}
	}
	return p
}

// get returns an empty buffer owned by exactly one holder.
func (p *relayPool) get() *relayBuf {
	p.gets.Add(1)
	buf := p.pool.Get().(*relayBuf)
	buf.bb.Reset()
	return buf
}

// release returns the buffer to the pool (unless it grew past the
// retention cap, in which case it is left to the GC so the pool stays
// populated with right-sized buffers). The holder must not touch buf,
// or any slice of its bytes, afterwards.
func (p *relayPool) release(buf *relayBuf) {
	if buf != nil && buf.bb.Cap() <= maxPooledRelayBuf {
		p.pool.Put(buf)
	}
}

// releaseResult returns a buffered attempt's pooled buffer, if it has
// one. Safe on nil results.
func (g *Gateway) releaseResult(res *attemptResult) {
	if res != nil && res.buf != nil {
		g.relayBufs.release(res.buf)
		res.buf = nil
		res.body = nil
	}
}
