package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"mocha/internal/netsim"
)

// Stream ops carried inside tagStream packets. The simulated stream models
// what the hybrid protocol needs from TCP: a connect round trip, reliable
// in-order delivery with the network's bandwidth and propagation behaviour,
// and orderly shutdown. It does not retransmit: simulated packet loss is a
// datagram-layer experiment, and the stream path reports a stalled
// transfer via read deadlines, which the hybrid layer treats as a transfer
// failure exactly as it treats a broken TCP connection.
const (
	opSYN byte = iota + 1
	opSYNACK
	opDATA
	opFIN
	opRST
)

// simMSS is the data payload per simulated stream segment: MTU minus the
// stream tag and the 9-byte segment header.
const simMSS = simMTU - 10

// dialTimeout bounds a simulated connect; far beyond any simulated RTT.
const dialTimeout = 10 * time.Second

// ListenStream implements Stack.
func (s *SimStack) ListenStream() (Listener, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.nextListen++
	l := &simListener{
		stack:   s,
		id:      s.nextListen,
		pending: make(chan *simConn, 16),
		done:    make(chan struct{}),
	}
	s.listeners[l.id] = l
	return l, nil
}

// DialStream implements Stack. The address has the form "node#listener".
func (s *SimStack) DialStream(addr string) (Conn, error) {
	node, listenerID, err := parseStreamAddr(addr)
	if err != nil {
		return nil, err
	}
	c := s.newConn(node)

	var syn [9]byte
	syn[0] = opSYN
	binary.BigEndian.PutUint32(syn[1:5], listenerID)
	binary.BigEndian.PutUint32(syn[5:9], c.localID)
	s.send(node, tagStream, syn[:])

	select {
	case <-c.established:
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err != nil {
			s.dropConn(c.localID)
			return nil, err
		}
		return c, nil
	case <-time.After(dialTimeout):
		s.dropConn(c.localID)
		return nil, fmt.Errorf("transport: dial %s: %w", addr, ErrTimeout)
	}
}

// newConn allocates and registers a connection endpoint.
func (s *SimStack) newConn(remote netsim.NodeID) *simConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextConn++
	c := &simConn{
		stack:       s,
		localID:     s.nextConn,
		remote:      remote,
		established: make(chan struct{}),
		incoming:    make(chan []byte, 8192),
		rearm:       make(chan struct{}),
		finSeq:      -1,
		reorder:     make(map[uint32][]byte),
	}
	s.conns[c.localID] = c
	return c
}

func (s *SimStack) dropConn(id uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, id)
}

func (s *SimStack) connByID(id uint32) *simConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns[id]
}

// handleStream processes one stream-tagged packet.
func (s *SimStack) handleStream(from netsim.NodeID, b []byte) {
	if len(b) < 5 {
		return
	}
	op := b[0]
	switch op {
	case opSYN:
		if len(b) < 9 {
			return
		}
		listenerID := binary.BigEndian.Uint32(b[1:5])
		dialerID := binary.BigEndian.Uint32(b[5:9])
		s.mu.Lock()
		l := s.listeners[listenerID]
		s.mu.Unlock()
		if l == nil {
			var rst [5]byte
			rst[0] = opRST
			binary.BigEndian.PutUint32(rst[1:5], dialerID)
			s.send(from, tagStream, rst[:])
			return
		}
		c := s.newConn(from)
		c.mu.Lock()
		c.remoteID = dialerID
		c.mu.Unlock()
		var ack [9]byte
		ack[0] = opSYNACK
		binary.BigEndian.PutUint32(ack[1:5], dialerID)
		binary.BigEndian.PutUint32(ack[5:9], c.localID)
		s.send(from, tagStream, ack[:])
		select {
		case l.pending <- c:
		case <-l.done:
			_ = c.Close()
		}
	case opSYNACK:
		if len(b) < 9 {
			return
		}
		dialerID := binary.BigEndian.Uint32(b[1:5])
		acceptorID := binary.BigEndian.Uint32(b[5:9])
		c := s.connByID(dialerID)
		if c == nil {
			return
		}
		c.mu.Lock()
		if c.remoteID == 0 {
			c.remoteID = acceptorID
			close(c.established)
		}
		c.mu.Unlock()
	case opDATA:
		if len(b) < 9 {
			return
		}
		destID := binary.BigEndian.Uint32(b[1:5])
		seq := binary.BigEndian.Uint32(b[5:9])
		c := s.connByID(destID)
		if c == nil {
			return
		}
		payload := make([]byte, len(b)-9)
		copy(payload, b[9:])
		c.deliver(seq, payload)
	case opFIN:
		if len(b) < 9 {
			return
		}
		destID := binary.BigEndian.Uint32(b[1:5])
		finalSeq := binary.BigEndian.Uint32(b[5:9])
		c := s.connByID(destID)
		if c == nil {
			return
		}
		c.finish(int64(finalSeq))
	case opRST:
		destID := binary.BigEndian.Uint32(b[1:5])
		c := s.connByID(destID)
		if c == nil {
			return
		}
		c.mu.Lock()
		if c.remoteID == 0 && c.err == nil {
			c.err = fmt.Errorf("transport: connection refused")
			close(c.established)
		}
		c.mu.Unlock()
	}
}

// simListener accepts simulated streams.
type simListener struct {
	stack   *SimStack
	id      uint32
	pending chan *simConn

	closeOnce sync.Once
	done      chan struct{}
}

var _ Listener = (*simListener)(nil)

// Addr implements Listener.
func (l *simListener) Addr() string {
	return l.stack.addr + "#" + strconv.FormatUint(uint64(l.id), 10)
}

// Accept implements Listener.
func (l *simListener) Accept() (Conn, error) {
	select {
	case c := <-l.pending:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// Close implements Listener.
func (l *simListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.stack.mu.Lock()
		delete(l.stack.listeners, l.id)
		l.stack.mu.Unlock()
	})
	return nil
}

// simConn is one endpoint of a simulated stream.
type simConn struct {
	stack       *SimStack
	localID     uint32
	remote      netsim.NodeID
	established chan struct{}

	mu       sync.Mutex
	remoteID uint32
	err      error
	closed   bool

	// Send side.
	sendSeq uint32

	// Receive side: segments reordered by seq, then queued in order.
	reorder  map[uint32][]byte
	nextSeq  uint32
	finSeq   int64 // -1 until FIN arrives
	eofSent  bool
	incoming chan []byte
	leftover []byte
	deadline time.Time
	// rearm is closed and replaced by SetReadDeadline so that, as with a
	// net.Conn, a new deadline also applies to a Read already blocked.
	rearm chan struct{}
}

var _ Conn = (*simConn)(nil)

// deliver accepts one data segment, reorders, and queues ready bytes.
func (c *simConn) deliver(seq uint32, payload []byte) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.reorder[seq] = payload
	c.drainLocked()
	c.mu.Unlock()
}

// finish records the FIN's final sequence number.
func (c *simConn) finish(finalSeq int64) {
	c.mu.Lock()
	c.finSeq = finalSeq
	c.drainLocked()
	c.mu.Unlock()
}

// drainLocked moves in-order segments to the incoming queue and emits the
// EOF sentinel (nil) once all data before the FIN has been queued.
// Called with c.mu held; channel sends may block only if a reader is
// hopelessly behind, bounded by the channel capacity.
func (c *simConn) drainLocked() {
	for {
		payload, ok := c.reorder[c.nextSeq]
		if !ok {
			break
		}
		delete(c.reorder, c.nextSeq)
		c.nextSeq++
		select {
		case c.incoming <- payload:
		default:
			// Receiver queue full: drop the connection rather than block
			// netsim delivery goroutines. The reader sees a reset.
			c.err = fmt.Errorf("transport: stream receive queue overflow")
			return
		}
	}
	if !c.eofSent && c.finSeq >= 0 && int64(c.nextSeq) >= c.finSeq {
		c.eofSent = true
		select {
		case c.incoming <- nil:
		default:
			c.err = fmt.Errorf("transport: stream receive queue overflow")
		}
	}
}

// Read implements Conn.
func (c *simConn) Read(p []byte) (int, error) {
	for {
		n, rearmed, err := c.readOnce(p)
		if !rearmed {
			return n, err
		}
	}
}

// readOnce is one wait of Read under the deadline current when it starts;
// rearmed reports that SetReadDeadline changed the deadline mid-wait and
// the read must start over under the new one.
func (c *simConn) readOnce(p []byte) (n int, rearmed bool, err error) {
	c.mu.Lock()
	if len(c.leftover) > 0 {
		n := copy(p, c.leftover)
		c.leftover = c.leftover[n:]
		c.mu.Unlock()
		return n, false, nil
	}
	if c.closed {
		c.mu.Unlock()
		return 0, false, ErrClosed
	}
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, false, err
	}
	deadline := c.deadline
	rearm := c.rearm
	c.mu.Unlock()

	var timeout <-chan time.Time
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			return 0, false, ErrTimeout
		}
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case payload := <-c.incoming:
		if payload == nil {
			c.mu.Lock()
			c.err = io.EOF
			c.mu.Unlock()
			return 0, false, io.EOF
		}
		n := copy(p, payload)
		if n < len(payload) {
			c.mu.Lock()
			c.leftover = payload[n:]
			c.mu.Unlock()
		}
		return n, false, nil
	case <-timeout:
		return 0, false, ErrTimeout
	case <-rearm:
		return 0, true, nil
	}
}

// Write implements Conn. Segments enter the simulated network immediately;
// bandwidth and propagation delays are applied by netsim's uplink model,
// and the modelled kernel CPU cost of the TCP path is charged by the
// hybrid layer, not here.
func (c *simConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	remoteID := c.remoteID
	c.mu.Unlock()
	if remoteID == 0 {
		return 0, fmt.Errorf("transport: write before connection established")
	}
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > simMSS {
			n = simMSS
		}
		seg := make([]byte, 9+n)
		seg[0] = opDATA
		binary.BigEndian.PutUint32(seg[1:5], remoteID)
		c.mu.Lock()
		binary.BigEndian.PutUint32(seg[5:9], c.sendSeq)
		c.sendSeq++
		c.mu.Unlock()
		copy(seg[9:], p[:n])
		c.stack.send(c.remote, tagStream, seg)
		p = p[n:]
		total += n
	}
	return total, nil
}

// SetReadDeadline implements Conn.
func (c *simConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadline = t
	close(c.rearm)
	c.rearm = make(chan struct{})
	return nil
}

// Close implements Conn: sends FIN with the final sequence number so the
// peer can detect completion, then releases local state.
func (c *simConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	remoteID := c.remoteID
	finalSeq := c.sendSeq
	c.mu.Unlock()

	if remoteID != 0 {
		var fin [9]byte
		fin[0] = opFIN
		binary.BigEndian.PutUint32(fin[1:5], remoteID)
		binary.BigEndian.PutUint32(fin[5:9], finalSeq)
		c.stack.send(c.remote, tagStream, fin[:])
	}
	c.stack.dropConn(c.localID)
	return nil
}

// parseStreamAddr splits "node#listener".
func parseStreamAddr(addr string) (netsim.NodeID, uint32, error) {
	i := strings.IndexByte(addr, '#')
	if i < 0 {
		return 0, 0, fmt.Errorf("transport: bad stream address %q", addr)
	}
	node, err := parseSimNode(addr[:i])
	if err != nil {
		return 0, 0, err
	}
	l, err := strconv.ParseUint(addr[i+1:], 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("transport: bad stream address %q: %w", addr, err)
	}
	return node, uint32(l), nil
}
