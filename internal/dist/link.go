// Reduction-tree connection plumbing. Every rank but 0 has exactly one
// tree parent, rank − lowbit(rank), and sends it one aggregate frame on one
// connection, written by the worker's own goroutine. A receive hub accepts
// the children's connections and delivers each child's frame by sender
// rank. Both sides watch the worker's context, so a run that is cancelled
// or loses its coordinator aborts at once: cancelling closes the
// connections, which ends any read or write blocked on them. Received
// frames land in pooled buffers.
package dist

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// peerLinkError marks a failed reduction-tree connection. It is usually a
// symptom: the peer aborted because its coordinator connection dropped, or
// it failed and reported that to the coordinator, which then drops the run.
type peerLinkError struct{ error }

func (e peerLinkError) Unwrap() error { return e.error }

// dialParent connects rank to its tree parent at addr and sends the
// PeerHello identifying this sender; the aggregate follows on the same
// connection. Cancelling ctx closes the connection.
func dialParent(ctx context.Context, rank int, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: 10 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: rank %d dialing parent: %w", rank, err)
	}
	context.AfterFunc(ctx, func() { _ = conn.Close() })
	if _, err := WriteFrame(conn, &Frame{Kind: KindPeerHello, Seq: uint32(rank)}); err != nil {
		_ = conn.Close()
		return nil, peerLinkError{fmt.Errorf("dist: rank %d peer send: %w", rank, err)}
	}
	return conn, nil
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
// goroutine and the combine loop race to be first). A sender delivers one
// frame, so the queue holds one.
func (h *recvHub) queueFor(rank int) chan recvMsg {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch := h.senders[rank]
	if ch == nil {
		ch = make(chan recvMsg, 1)
		h.senders[rank] = ch
	}
	return ch
}

// serve reads one peer connection: a PeerHello naming the sender, then
// the sender's aggregate frame, delivered to that sender's queue in a
// pooled buffer whose ownership transfers to the consumer.
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
	f, buf, err := ReadFrame(conn, getBuf(0))
	m := recvMsg{f: f, buf: buf, err: err}
	if err != nil {
		putBuf(buf)
		m.buf = nil
	} else {
		h.bytesRecv.Add(int64(2*HeaderLen + len(f.Payload)))
	}
	select {
	case h.queueFor(int(hello.Seq)) <- m:
	case <-h.ctx.Done():
		putBuf(m.buf)
	}
}

// recv waits for the frame of a sender rank. The returned buffer
// must be recycled with putBuf after the payload is consumed.
func (h *recvHub) recv(from int) (Frame, []byte, error) {
	select {
	case m := <-h.queueFor(from):
		if m.err != nil {
			return Frame{}, nil, peerLinkError{fmt.Errorf("dist: receiving from rank %d: %w", from, m.err)}
		}
		return m.f, m.buf, nil
	case <-h.ctx.Done():
		return Frame{}, nil, context.Cause(h.ctx)
	}
}
