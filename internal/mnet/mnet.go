// Package mnet is the Go reproduction of Mocha's network object library:
// the custom communication substrate the paper builds all control traffic
// on. Quoting Section 5, the library "implements reliable, sequenced,
// delivery of messages as well as performing fragmentation and reassembly.
// It is scalable in the number of hosts that communicate with the library
// because it performs its own upward multiplexing of packets. It is
// particularly well suited for sending small messages as it avoids the
// heavy connection and tear-down overheads associated with other transport
// protocols such as TCP."
//
// An Endpoint owns one datagram socket and multiplexes any number of
// logical Ports onto it. Port.Send fragments a message, transmits the
// fragments under a per-peer sliding window, retransmits until each
// fragment is acknowledged, and returns when the whole message has been
// acknowledged — so a Send whose context times out doubles as the failure
// detector the paper's Section 4 relies on ("the send message will time
// out. The failure has been detected"). Receivers reassemble fragments,
// deduplicate, restore per-(sender, port) sequence order, and hand
// complete messages to the port's handler on a dedicated dispatcher
// goroutine, mirroring the single daemon thread of the paper's runtime.
//
// When the endpoint is built from the JDK1 cost model, fragmentation and
// reassembly charge the interpreted-bytecode costs that made the real
// library lose to kernel TCP for large transfers (Figures 11-14).
package mnet

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/transport"
)

// Config parameterizes an Endpoint.
type Config struct {
	// Cost is the execution-cost model charged for fragmentation and
	// reassembly. The zero value charges nothing.
	Cost netsim.CostModel
	// RTO is the retransmission timeout for unacknowledged fragments.
	RTO time.Duration
	// MaxRetries bounds per-fragment retransmissions before the message
	// send fails.
	MaxRetries int
	// Window is the maximum number of unacknowledged fragments in flight
	// to one peer.
	Window int
	// GapTimeout bounds how long in-order delivery waits for a missing
	// sequence number before skipping it (the sender either failed or gave
	// up).
	GapTimeout time.Duration
	// Key, when non-empty, enables HMAC authentication of every packet.
	// All endpoints of a cluster must share the key.
	Key []byte
	// QueueLen is the per-port inbound queue length.
	QueueLen int
	// Metrics, when non-nil, mirrors the endpoint's reliability counters
	// (sends, deliveries, retransmits, failures, queue drops) into the
	// shared observability plane alongside the endpoint-local Stats.
	Metrics *obs.Registry
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.RTO <= 0 {
		c.RTO = 200 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.GapTimeout <= 0 {
		c.GapTimeout = 2 * time.Second
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	return c
}

// Stats counts endpoint activity.
type Stats struct {
	MessagesSent      int64
	MessagesDelivered int64
	FragmentsSent     int64
	FragmentsRecv     int64
	Retransmits       int64
	Duplicates        int64
	SendFailures      int64
	BadPackets        int64
	QueueDrops        int64
	FlushDrops        int64
}

// atomicStats is the endpoint's lock-free counter block; Stats snapshots
// it. Keeping the counters out of the endpoint mutex stops bookkeeping
// from serializing concurrent Sends.
type atomicStats struct {
	messagesSent      atomic.Int64
	messagesDelivered atomic.Int64
	fragmentsSent     atomic.Int64
	fragmentsRecv     atomic.Int64
	retransmits       atomic.Int64
	duplicates        atomic.Int64
	sendFailures      atomic.Int64
	badPackets        atomic.Int64
	queueDrops        atomic.Int64
	flushDrops        atomic.Int64
}

// ErrSendFailed reports that a message exhausted its retransmissions — the
// peer is unreachable or dead.
var ErrSendFailed = errors.New("mnet: send failed after retries")

// ErrClosed reports use of a closed endpoint or port.
var ErrClosed = errors.New("mnet: closed")

// ErrPortInUse reports a duplicate OpenPort.
var ErrPortInUse = errors.New("mnet: port in use")

// Message is one delivered application message.
type Message struct {
	// From is the sender's full MNet address ("endpoint/port"), directly
	// usable as a reply address.
	From string
	// Data is the reassembled message body; the receiver owns it.
	Data []byte
}

// Handler consumes delivered messages. Each port's handler runs on one
// dispatcher goroutine, so invocations for a port never overlap.
type Handler func(m Message)

// Endpoint multiplexes logical ports over one datagram endpoint.
type Endpoint struct {
	cfg Config
	dg  transport.Datagram

	// wheel schedules retransmission timeouts and the gap sweep.
	wheel *netsim.Wheel
	// fl coalesces outbound packets into per-peer transport batches.
	fl     *flusher
	gapJob netsim.WheelTimer

	// boot is this endpoint's incarnation, stamped on every data packet.
	// A peer that sees it change knows the endpoint restarted (its
	// sequence numbers and message IDs began anew) and resets its receive
	// state for this sender instead of shadowing the reborn endpoint with
	// its predecessor's ordering.
	boot uint32

	nextMsg atomic.Uint64
	stats   atomicStats

	mu      sync.Mutex
	closed  bool
	ports   map[uint16]*Port
	peers   map[string]*peer
	outMsgs map[uint64]*outMsg
	done    chan struct{}
	flushWG sync.WaitGroup
}

// bootSeq distinguishes endpoint incarnations created in one process; the
// time term distinguishes incarnations across process restarts.
var bootSeq atomic.Uint32

// newBoot derives a fresh endpoint incarnation, never zero (zero marks
// "no incarnation seen yet" in peer state).
func newBoot() uint32 {
	b := uint32(time.Now().UnixNano())*2654435761 + bootSeq.Add(1)
	if b == 0 {
		b = 1
	}
	return b
}

// NewEndpoint wraps a datagram endpoint. The Endpoint takes ownership and
// closes the datagram on Close.
func NewEndpoint(dg transport.Datagram, cfg Config) *Endpoint {
	e := &Endpoint{
		cfg:     cfg.withDefaults(),
		dg:      dg,
		boot:    newBoot(),
		ports:   make(map[uint16]*Port),
		peers:   make(map[string]*peer),
		outMsgs: make(map[uint64]*outMsg),
		wheel:   netsim.DefaultWheel(),
		done:    make(chan struct{}),
	}
	e.fl = newFlusher(e)
	e.flushWG.Add(1)
	go e.fl.run()
	// Gap release and reassembly expiry are periodic housekeeping, not
	// per-message deadlines: one recurring wheel job covers them and
	// samples the wheel-occupancy gauge.
	interval := e.cfg.RTO / 2
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	e.gapJob = e.wheel.Every(interval, func() {
		e.releaseGaps()
		e.cfg.Metrics.GaugeSet(obs.GWheelTimers, int64(e.wheel.Len()))
	})
	// The handler registers only once the endpoint is fully built: a real
	// socket's read loop delivers from a concurrent goroutine the moment
	// it has somewhere to deliver to.
	dg.SetHandler(e.receive)
	return e
}

// Addr returns the endpoint's datagram address.
func (e *Endpoint) Addr() string { return e.dg.LocalAddr() }

// PortAddr returns the full MNet address of a port on this endpoint.
func (e *Endpoint) PortAddr(port uint16) string {
	return JoinAddr(e.Addr(), port)
}

// Stats returns a snapshot of the endpoint counters.
func (e *Endpoint) Stats() Stats {
	return Stats{
		MessagesSent:      e.stats.messagesSent.Load(),
		MessagesDelivered: e.stats.messagesDelivered.Load(),
		FragmentsSent:     e.stats.fragmentsSent.Load(),
		FragmentsRecv:     e.stats.fragmentsRecv.Load(),
		Retransmits:       e.stats.retransmits.Load(),
		Duplicates:        e.stats.duplicates.Load(),
		SendFailures:      e.stats.sendFailures.Load(),
		BadPackets:        e.stats.badPackets.Load(),
		QueueDrops:        e.stats.queueDrops.Load(),
		FlushDrops:        e.stats.flushDrops.Load(),
	}
}

// OpenPort creates a logical port. Messages addressed to it queue until a
// handler is set.
func (e *Endpoint) OpenPort(port uint16) (*Port, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if _, ok := e.ports[port]; ok {
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	p := &Port{
		ep:    e,
		num:   port,
		queue: make(chan queued, e.cfg.QueueLen),
	}
	e.ports[port] = p
	go p.dispatch()
	return p, nil
}

// Close shuts the endpoint down: all pending sends fail, dispatchers stop,
// and the underlying datagram endpoint is closed.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for _, m := range e.outMsgs {
		m.fail(ErrClosed)
	}
	e.outMsgs = make(map[uint64]*outMsg)
	close(e.done)
	e.mu.Unlock()
	e.gapJob.Stop()
	e.flushWG.Wait()
	return e.dg.Close()
}

// peer tracks per-remote-endpoint state: the send window, delivery
// sequencing, reassembly, and duplicate suppression.
type peer struct {
	window chan struct{}

	mu sync.Mutex
	// nextSeq assigns outbound sequence numbers per destination port.
	nextSeq map[uint16]uint64
	// rxBoot is the sender incarnation the peer's data packets last
	// carried; zero until the first packet. A previously unseen boot means
	// the remote endpoint restarted and its receive-side state below is
	// void; superseded boots are kept in staleBoots so a delayed packet
	// from a dead incarnation is dropped rather than mistaken for yet
	// another restart (which would wipe the live incarnation's state).
	rxBoot     uint32
	staleBoots []uint32
	// order restores inbound per-source-port sequence order.
	order map[uint16]*ordering
	// reasm holds partially received messages by msgID.
	reasm map[uint64]*reassembly
	// delivered suppresses redelivery of completed msgIDs.
	delivered     map[uint64]struct{}
	deliveredRing []uint64
}

// ordering is the in-order delivery state for one (peer, port) pair.
type ordering struct {
	next    uint64
	pending map[uint64]pendingMsg
}

type pendingMsg struct {
	msg     queued
	arrived time.Time
}

// reassembly collects the fragments of one message.
type reassembly struct {
	frags   [][]byte
	have    int
	total   int
	bytes   int
	srcPort uint16
	dstPort uint16
	seq     uint64
	started time.Time
}

// queued is one complete message waiting in a port queue.
type queued struct {
	from    string
	srcPort uint16
	data    []byte
	frags   int
}

// getPeer returns (creating if needed) the state for a remote endpoint.
func (e *Endpoint) getPeer(addr string) *peer {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.peers[addr]
	if !ok {
		p = &peer{
			window:    make(chan struct{}, e.cfg.Window),
			nextSeq:   make(map[uint16]uint64),
			order:     make(map[uint16]*ordering),
			reasm:     make(map[uint64]*reassembly),
			delivered: make(map[uint64]struct{}),
		}
		e.peers[addr] = p
	}
	return p
}

// Port is one logical endpoint multiplexed onto the Endpoint's socket.
type Port struct {
	ep  *Endpoint
	num uint16

	mu      sync.Mutex
	handler Handler
	queue   chan queued
}

// Num returns the port number.
func (p *Port) Num() uint16 { return p.num }

// Addr returns the port's full MNet address.
func (p *Port) Addr() string { return p.ep.PortAddr(p.num) }

// SetHandler installs the message handler. Messages received before a
// handler is set wait in the port queue.
func (p *Port) SetHandler(h Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.handler = h
}

// dispatch delivers queued messages to the handler one at a time, charging
// the modelled reassembly cost — the work the paper's library performed
// "at user level running as interpreted byte code".
func (p *Port) dispatch() {
	for {
		select {
		case q := <-p.queue:
			netsim.Charge(p.ep.cfg.Cost.ReassembleMessageCost(q.frags, len(q.data)))
			p.mu.Lock()
			h := p.handler
			p.mu.Unlock()
			if h != nil {
				h(Message{From: JoinAddr(q.from, q.srcPort), Data: q.data})
				p.ep.stats.messagesDelivered.Add(1)
				p.ep.cfg.Metrics.Inc(obs.CMsgsDelivered)
				continue
			}
			// No handler yet: requeue and back off briefly so early
			// traffic is not lost during startup.
			select {
			case p.queue <- q:
			default:
			}
			time.Sleep(time.Millisecond)
		case <-p.ep.done:
			return
		}
	}
}

// JoinAddr builds a full MNet address from an endpoint address and port.
func JoinAddr(endpoint string, port uint16) string {
	return endpoint + "/" + strconv.FormatUint(uint64(port), 10)
}

// SplitAddr splits a full MNet address into endpoint address and port.
func SplitAddr(addr string) (string, uint16, error) {
	i := strings.LastIndexByte(addr, '/')
	if i < 0 {
		return "", 0, fmt.Errorf("mnet: address %q missing port", addr)
	}
	port, err := strconv.ParseUint(addr[i+1:], 10, 16)
	if err != nil {
		return "", 0, fmt.Errorf("mnet: address %q: %w", addr, err)
	}
	return addr[:i], uint16(port), nil
}

// Ctx is a convenience wrapper building a send context with timeout.
func Ctx(timeout time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), timeout)
}
