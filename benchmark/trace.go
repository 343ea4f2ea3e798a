package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mocha/internal/check"
	"mocha/internal/core"
	"mocha/internal/marshal"
	"mocha/internal/obs"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// Bounds on what a traced pass keeps in memory. local_ctl emits on the
// order of 200k history events and 100k spans per second, so the recorder
// and the span log hold a prefix of the run; the online monitor and every
// counter still see all of it.
const (
	recorderCap = 1 << 19
	spanLogCap  = 1 << 17
)

// tracer is everything the traced pass switches on: the shared obs plane,
// the history recorder and online monitor, the timing wrappers at the
// codec and datagram seams, and the harness's own span log. A nil
// *tracer is the untraced pass: every accessor returns the disabled value.
type tracer struct {
	reg *obs.Registry
	rec *check.Recorder
	mon *check.Monitor

	codecCalls, codecBusyNs, codecBytes atomic.Int64
	sendCalls, sendBusyNs               atomic.Int64
	ops                                 atomic.Uint64 // operation ids for the span log

	mu         sync.Mutex
	spans      []harnessSpan
	prog       []obs.SpanRecord
	progCursor uint64
}

func newTracer() *tracer {
	return &tracer{
		reg: obs.NewRegistry(),
		rec: check.NewRecorder(recorderCap, nil),
		mon: check.NewMonitor(check.DefaultWindow),
	}
}

// attach shares the simulated network's clock with the registry and the
// recorder, so span ticks and history ticks land on one axis.
func (t *tracer) attach(sim *transport.SimNetwork) {
	if t == nil {
		return
	}
	t.reg.SetClock(sim.Clock())
	t.rec.SetClock(sim.Clock())
}

func (t *tracer) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

func (t *tracer) history() core.HistorySink {
	if t == nil {
		return nil
	}
	return check.MultiSink(t.rec, t.mon)
}

func (t *tracer) codec(inner marshal.Codec) marshal.Codec {
	if t == nil {
		return inner
	}
	return &timingCodec{inner: inner, t: t}
}

func (t *tracer) datagram(inner transport.Datagram) transport.Datagram {
	if t == nil {
		return inner
	}
	// The simulated datagram has a batch path; keep it visible to mnet's
	// flusher through the wrapper.
	return &timingDatagram{Datagram: inner, batch: inner.(transport.BatchSender), t: t}
}

// verify fails the pass on a latched monitor counterexample or an offline
// checker violation over the recorded prefix. Call after the cluster is
// closed, when the history has quiesced.
func (t *tracer) verify() error {
	if cx := t.mon.Err(); cx != nil {
		return fmt.Errorf("online monitor: %w", cx)
	}
	if v := check.Check(t.rec.Events()); v != nil {
		return fmt.Errorf("history checker: %w", v)
	}
	return nil
}

// timingCodec times every Marshal and Unmarshal the program performs.
type timingCodec struct {
	inner marshal.Codec
	t     *tracer
}

func (c *timingCodec) Name() string { return c.inner.Name() }

func (c *timingCodec) Marshal(v *marshal.Content) ([]byte, error) {
	start := time.Now()
	b, err := c.inner.Marshal(v)
	c.t.codecBusyNs.Add(int64(time.Since(start)))
	c.t.codecCalls.Add(1)
	c.t.codecBytes.Add(int64(len(b)))
	return b, err
}

func (c *timingCodec) Unmarshal(b []byte, v *marshal.Content) error {
	start := time.Now()
	err := c.inner.Unmarshal(b, v)
	c.t.codecBusyNs.Add(int64(time.Since(start)))
	c.t.codecCalls.Add(1)
	c.t.codecBytes.Add(int64(len(b)))
	return err
}

// timingDatagram times every packet hand-off from mnet to the transport.
type timingDatagram struct {
	transport.Datagram
	batch transport.BatchSender
	t     *tracer
}

func (d *timingDatagram) Send(to string, pkt []byte) error {
	start := time.Now()
	err := d.Datagram.Send(to, pkt)
	d.t.sendBusyNs.Add(int64(time.Since(start)))
	d.t.sendCalls.Add(1)
	return err
}

func (d *timingDatagram) SendBatch(to string, pkts [][]byte) error {
	start := time.Now()
	err := d.batch.SendBatch(to, pkts)
	d.t.sendBusyNs.Add(int64(time.Since(start)))
	d.t.sendCalls.Add(1)
	return err
}

// harnessSpan is one span the harness records around a call into the
// program. Spans of one operation share Op; Parent is the enclosing
// span's name ("" for the op itself).
type harnessSpan struct {
	Op      uint64      `json:"op"`
	Name    string      `json:"name"`
	Parent  string      `json:"parent,omitempty"`
	Site    wire.SiteID `json:"site"`
	Lock    wire.LockID `json:"lock"`
	Version uint64      `json:"version,omitempty"`
	Start   time.Time   `json:"start"`
	End     time.Time   `json:"end"`
}

// opSpans logs one operation's four harness spans and drains the
// program's span ring (256 entries) before it wraps. Past spanLogCap
// operations it records nothing more.
func (t *tracer) opSpans(site wire.SiteID, lock wire.LockID, acqV, relV uint64, t0, t1, t2, t3 time.Time) {
	op := t.ops.Add(1)
	if op > spanLogCap {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var recs []obs.SpanRecord
	recs, t.progCursor = t.reg.SpansSince(t.progCursor)
	t.prog = append(t.prog, recs...)
	t.spans = append(t.spans,
		harnessSpan{Op: op, Name: "op", Site: site, Lock: lock, Start: t0, End: t3},
		harnessSpan{Op: op, Name: "acquire", Parent: "op", Site: site, Lock: lock, Version: acqV, Start: t0, End: t1},
		harnessSpan{Op: op, Name: "mutate", Parent: "op", Site: site, Lock: lock, Start: t1, End: t2},
		harnessSpan{Op: op, Name: "release", Parent: "op", Site: site, Lock: lock, Version: relV, Start: t2, End: t3},
	)
}

// traceFile is what -trace-out writes: every harness span, with the
// program's spans attached as children of the harness span that made the
// call, matched on (op name, site, lock, version).
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Spans    []tracedSpan     `json:"spans"`
	Orphans  []obs.SpanRecord `json:"unjoined_program_spans,omitempty"`
}

type tracedSpan struct {
	harnessSpan
	DurNs int64 `json:"dur_ns"`
	// SelfNs is the span's duration minus the time its children cover.
	SelfNs   int64            `json:"self_ns"`
	Children []obs.SpanRecord `json:"children,omitempty"`
}

type joinKey struct {
	name    string
	site    wire.SiteID
	lock    wire.LockID
	version uint64
}

func (t *tracer) writeTrace(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	byKey := make(map[joinKey][]int, len(t.prog))
	for i, p := range t.prog {
		k := joinKey{p.Op, wire.SiteID(p.Site), wire.LockID(p.Lock), p.Version}
		byKey[k] = append(byKey[k], i)
	}
	out := traceFile{Workload: workload, Seed: seed, Spans: make([]tracedSpan, len(t.spans))}
	childCover := make(map[uint64]time.Duration) // op id -> time its acquire/mutate/release cover
	for i, h := range t.spans {
		ts := tracedSpan{harnessSpan: h, DurNs: int64(h.End.Sub(h.Start))}
		ts.SelfNs = ts.DurNs
		k := joinKey{h.Name, h.Site, h.Lock, h.Version}
		if idx := byKey[k]; len(idx) > 0 {
			p := t.prog[idx[0]]
			byKey[k] = idx[1:]
			ts.Children = []obs.SpanRecord{p}
			ts.SelfNs -= int64(p.Total)
		}
		if h.Parent == "op" {
			childCover[h.Op] += h.End.Sub(h.Start)
		}
		out.Spans[i] = ts
	}
	for i := range out.Spans {
		if out.Spans[i].Name == "op" {
			out.Spans[i].SelfNs -= int64(childCover[out.Spans[i].Op])
		}
	}
	for _, idx := range byKey {
		for _, i := range idx {
			out.Orphans = append(out.Orphans, t.prog[i])
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(out); err != nil {
		_ = f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
