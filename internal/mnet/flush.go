package mnet

import (
	"sync"

	"mocha/internal/obs"
	"mocha/internal/transport"
)

// flushQueueCap bounds outbound packets buffered across all peers. Beyond
// it new packets are dropped and counted; the retransmission machinery
// (for data) and duplicate re-acking (for acks) recover them, exactly as
// they would recover a network loss.
const flushQueueCap = 4096

// flusher coalesces outbound packets into per-peer batches. Senders hand
// it pooled packet copies (ownership transfers) and return immediately;
// one goroutine drains the queues, pushing each peer's accumulated run
// through the transport's batch path in a single call. Batches form only
// under backpressure — while the flusher is inside one transport send,
// everything newly enqueued piles up for the next round — so an idle
// endpoint still transmits each packet near-immediately, and a saturated
// one amortizes the per-send cost (routing-lock acquisition on the
// simulated network, syscall entry on real UDP) over the whole run.
type flusher struct {
	e  *Endpoint
	bs transport.BatchSender // nil when the transport has no batch path

	mu      sync.Mutex
	queues  map[string][]*[]byte
	order   []string // peers with pending packets, round order
	pending int
	closed  bool
	wake    chan struct{}

	scratch [][]byte // reused batch view, owned by the run goroutine
}

func newFlusher(e *Endpoint) *flusher {
	bs, _ := e.dg.(transport.BatchSender)
	return &flusher{
		e:      e,
		bs:     bs,
		queues: make(map[string][]*[]byte),
		wake:   make(chan struct{}, 1),
	}
}

// enqueue hands one pooled packet to the flusher, which now owns the
// buffer. Never blocks: over capacity the packet is dropped and counted.
func (f *flusher) enqueue(peer string, bp *[]byte) {
	f.mu.Lock()
	if f.closed || f.pending >= flushQueueCap {
		f.mu.Unlock()
		putPktBuf(bp)
		if !f.closed {
			f.e.stats.flushDrops.Add(1)
			f.e.cfg.Metrics.Inc(obs.CFlushDrops)
		}
		return
	}
	q := f.queues[peer]
	if len(q) == 0 {
		f.order = append(f.order, peer)
	}
	f.queues[peer] = append(q, bp)
	f.pending++
	f.mu.Unlock()
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// run drains the queues until the endpoint closes.
func (f *flusher) run() {
	defer f.e.flushWG.Done()
	for {
		select {
		case <-f.wake:
			for {
				peer, pkts := f.next()
				if peer == "" {
					break
				}
				f.send(peer, pkts)
			}
		case <-f.e.done:
			f.drain()
			return
		}
	}
}

// next pops one peer's entire accumulated run.
func (f *flusher) next() (string, []*[]byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.order) == 0 {
		return "", nil
	}
	peer := f.order[0]
	f.order = f.order[1:]
	pkts := f.queues[peer]
	delete(f.queues, peer)
	f.pending -= len(pkts)
	f.e.cfg.Metrics.GaugeSet(obs.GFlushQueue, int64(f.pending))
	return peer, pkts
}

// send pushes one peer's run through the transport and returns the
// buffers to the pool. Transport errors are ignored: an unreachable peer
// surfaces as a retransmission timeout, same as a lost datagram.
func (f *flusher) send(peer string, pkts []*[]byte) {
	if f.bs != nil && len(pkts) > 1 {
		if cap(f.scratch) < len(pkts) {
			f.scratch = make([][]byte, len(pkts))
		}
		batch := f.scratch[:len(pkts)]
		for i, bp := range pkts {
			batch[i] = *bp
		}
		_ = f.bs.SendBatch(peer, batch)
	} else {
		for _, bp := range pkts {
			_ = f.e.dg.Send(peer, *bp)
		}
	}
	for _, bp := range pkts {
		putPktBuf(bp)
	}
	f.e.cfg.Metrics.Inc(obs.CSendBatches)
	f.e.cfg.Metrics.Add(obs.CSendBatchPkts, int64(len(pkts)))
}

// drain frees everything still queued at close.
func (f *flusher) drain() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	for _, q := range f.queues {
		for _, bp := range q {
			putPktBuf(bp)
		}
	}
	f.queues = map[string][]*[]byte{}
	f.order = nil
	f.pending = 0
}
