// Reduction-tree connection plumbing. Every rank but 0 has exactly one
// tree parent, rank − lowbit(rank), so a worker sends on one connection
// through one writer goroutine: a sender can start its next shard append
// while its aggregate frame is still in flight (which only matters when
// Rounds > 1), and the bounded queue is the run's only flow control. A
// receive hub demultiplexes incoming peer frames by sender rank. Both
// sides watch the worker's context, so a run that is cancelled or loses
// its coordinator aborts mid-round. Buffers are pooled on both sides; the
// steady state moves zero allocations per round.
package dist

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// sendQueueDepth bounds the frames queued to the parent. A round sends one
// aggregate frame per edge, so a sender runs at most about two rounds ahead
// of its parent before it blocks.
const sendQueueDepth = 2

// sendHub is a worker's edge to its tree parent: the connection, the
// writer goroutine's queue, and its accounting.
type sendHub struct {
	ctx  context.Context
	rank int
	conn net.Conn
	ch   chan []byte
	done chan struct{} // closed when the writer exits; err is set before

	err       error
	bytesSent int64
	sendNS    int64
}

// dialParent connects rank to its tree parent at addr and starts the
// writer. The first frame is a PeerHello identifying this sender.
func dialParent(ctx context.Context, rank int, addr string) (*sendHub, error) {
	d := net.Dialer{Timeout: 10 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d dialing parent: %w", rank, err)
	}
	context.AfterFunc(ctx, func() { _ = conn.Close() })
	h := &sendHub{ctx: ctx, rank: rank, conn: conn,
		ch: make(chan []byte, sendQueueDepth), done: make(chan struct{})}
	h.ch <- packFrame(&Frame{Kind: KindPeerHello, Seq: uint32(rank)}, 0, func([]byte) {})
	go h.writer()
	return h, nil
}

// send enqueues a framed buffer for the parent; ownership transfers (the
// writer recycles it). It blocks while the queue is full.
func (h *sendHub) send(framed []byte) error {
	select {
	case h.ch <- framed:
		return nil
	case <-h.done:
		putBuf(framed)
		return h.err
	case <-h.ctx.Done():
		putBuf(framed)
		return context.Cause(h.ctx)
	}
}

// writer drains the queue onto the connection until close or a failure.
func (h *sendHub) writer() {
	defer close(h.done)
	defer h.conn.Close()
	for {
		select {
		case buf, ok := <-h.ch:
			if !ok {
				return
			}
			t0 := time.Now()
			n, err := h.conn.Write(buf)
			h.sendNS += int64(time.Since(t0))
			h.bytesSent += int64(n)
			putBuf(buf)
			if err != nil {
				h.err = fmt.Errorf("dist: rank %d peer send: %w", h.rank, err)
				return
			}
		case <-h.ctx.Done():
			h.err = context.Cause(h.ctx)
			return
		}
	}
}

// close flushes the queue and waits for the writer, so every frame is on
// the wire (or the edge has failed) before the worker reports its stats.
func (h *sendHub) close() error {
	close(h.ch)
	<-h.done
	return h.err
}

// recvMsg is one delivered peer frame; buf owns the payload and goes back
// to the pool via putBuf once the consumer is done with it.
type recvMsg struct {
	f   Frame
	buf []byte
	err error
}

// recvHub accepts reduction-tree connections on a worker's peer listener
// and demultiplexes their frames into per-sender queues. It lives until
// ctx ends, which closes the listener and every accepted connection.
type recvHub struct {
	ctx context.Context

	mu      sync.Mutex
	senders map[int]chan recvMsg

	bytesRecv atomic.Int64
}

func newRecvHub(ctx context.Context, ln net.Listener) *recvHub {
	h := &recvHub{ctx: ctx, senders: map[int]chan recvMsg{}}
	context.AfterFunc(ctx, func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed: hub shutting down
			}
			go h.serve(conn)
		}
	}()
	return h
}

// queueFor get-or-creates the delivery queue of a sender rank (the accept
// goroutine and the combine loop race to be first).
func (h *recvHub) queueFor(rank int) chan recvMsg {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch := h.senders[rank]
	if ch == nil {
		ch = make(chan recvMsg, sendQueueDepth)
		h.senders[rank] = ch
	}
	return ch
}

// serve reads one peer connection: a PeerHello naming the sender, then a
// stream of bulk frames delivered in order to that sender's queue. Each
// frame lands in its own pooled buffer because ownership transfers to the
// consumer.
func (h *recvHub) serve(conn net.Conn) {
	defer conn.Close()
	context.AfterFunc(h.ctx, func() { _ = conn.Close() })
	setDeadline(conn, 30*time.Second)
	hello, buf, err := ReadFrame(conn, getBuf(0))
	putBuf(buf)
	if err != nil || hello.Kind != KindPeerHello {
		return // not a valid peer: drop the connection
	}
	setDeadline(conn, 0)
	ch := h.queueFor(int(hello.Seq))
	for {
		f, fbuf, err := ReadFrame(conn, getBuf(0))
		m := recvMsg{f: f, buf: fbuf, err: err}
		if err != nil {
			putBuf(fbuf)
			m.buf = nil
		} else {
			h.bytesRecv.Add(int64(HeaderLen + len(f.Payload)))
		}
		select {
		case ch <- m:
		case <-h.ctx.Done():
			putBuf(m.buf)
			return
		}
		if err != nil {
			return
		}
	}
}

// recv waits for the next frame from a sender rank. The returned buffer
// must be recycled with putBuf after the payload is consumed.
func (h *recvHub) recv(from int) (Frame, []byte, error) {
	select {
	case m := <-h.queueFor(from):
		if m.err != nil {
			return Frame{}, nil, fmt.Errorf("dist: receiving from rank %d: %w", from, m.err)
		}
		return m.f, m.buf, nil
	case <-h.ctx.Done():
		return Frame{}, nil, context.Cause(h.ctx)
	}
}
