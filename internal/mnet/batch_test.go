package mnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"mocha/internal/netsim"
	"mocha/internal/obs"
)

// TestFlusherBatchesUnderLoad drives concurrent senders at one peer and
// checks the flusher actually coalesced packets: the batch counters must
// show more packets than flushes somewhere in the system.
func TestFlusherBatchesUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	e1, e2, _ := pairConfig(t, netsim.Perfect(), Config{Metrics: reg})
	ch, _ := collect(t, e2, 5)
	sender, _ := e1.OpenPort(9)

	// Many senders, few messages each: a flush carries more than one
	// packet only when an enqueue lands while the flusher is busy, and on
	// a loaded two-core box eight senders sometimes never managed that.
	const (
		msgs    = 256 // collect's channel holds 256
		senders = 32
	)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < msgs/senders; i++ {
				sendOK(t, sender, e2.PortAddr(5), []byte{byte(g), byte(i)})
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < msgs; i++ {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("delivered %d/%d", i, msgs)
		}
	}
	batches := reg.CounterValue(obs.CSendBatches)
	pkts := reg.CounterValue(obs.CSendBatchPkts)
	if batches == 0 {
		t.Fatal("no flushes recorded")
	}
	// Every data fragment and every ack crosses a flusher; 256 messages
	// produce >=512 packets. If no flush ever carried more than one
	// packet, batching never engaged.
	if pkts <= batches {
		t.Fatalf("no coalescing: %d packets over %d flushes", pkts, batches)
	}
	if drops := e1.Stats().FlushDrops + e2.Stats().FlushDrops; drops != 0 {
		t.Fatalf("unexpected flush drops: %d", drops)
	}
}

// appenderMsg is a self-encoding test message.
type appenderMsg struct {
	n    int  // encoded payload size
	hint int  // claimed size (may lie low to test the fallback)
	fill byte // payload byte
}

func (a appenderMsg) EncodedSizeHint() int { return a.hint }

func (a appenderMsg) AppendEncode(buf []byte) []byte {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(a.n))
	buf = append(buf, l[:]...)
	for i := 0; i < a.n; i++ {
		buf = append(buf, a.fill)
	}
	return buf
}

// TestSendAppenderSingleFragment checks the zero-copy path: a message
// that fits one fragment is encoded in place and arrives byte-identical
// to its AppendEncode output, costing exactly one fragment.
func TestSendAppenderSingleFragment(t *testing.T) {
	e1, e2, _ := pair(t)
	ch, _ := collect(t, e2, 5)
	sender, _ := e1.OpenPort(9)

	msg := appenderMsg{n: 100, hint: 104, fill: 0xAB}
	before := e1.Stats().FragmentsSent
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sender.SendAppender(ctx, e2.PortAddr(5), msg); err != nil {
		t.Fatal(err)
	}
	want := msg.AppendEncode(nil)
	select {
	case m := <-ch:
		if !bytes.Equal(m.Data, want) {
			t.Fatalf("delivered %d bytes, want %d byte-identical", len(m.Data), len(want))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
	if sent := e1.Stats().FragmentsSent - before; sent != 1 {
		t.Fatalf("single-fragment appender sent %d fragments", sent)
	}
}

// TestSendAppenderFallbacks covers the two escape hatches: an encoding
// larger than one fragment refragments transparently, and a hint that
// underestimates still delivers correctly.
func TestSendAppenderFallbacks(t *testing.T) {
	e1, e2, _ := pair(t)
	ch, _ := collect(t, e2, 5)
	sender, _ := e1.OpenPort(9)

	for _, msg := range []appenderMsg{
		{n: 8000, hint: 8004, fill: 0x5C}, // multi-fragment
		{n: 600, hint: 8, fill: 0x77},     // lying hint, still one fragment
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := sender.SendAppender(ctx, e2.PortAddr(5), msg); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
		want := msg.AppendEncode(nil)
		select {
		case m := <-ch:
			if !bytes.Equal(m.Data, want) {
				t.Fatalf("n=%d hint=%d: corrupted delivery", msg.n, msg.hint)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("n=%d hint=%d: no delivery", msg.n, msg.hint)
		}
	}
}

// TestSendAppenderWithMAC checks in-place encoding composes with the
// authentication trailer.
func TestSendAppenderWithMAC(t *testing.T) {
	cfg := Config{Key: []byte("batch-test-key")}
	e1, e2, _ := pairConfig(t, netsim.Perfect(), cfg)
	ch, _ := collect(t, e2, 5)
	sender, _ := e1.OpenPort(9)
	msg := appenderMsg{n: 64, hint: 68, fill: 0x3E}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sender.SendAppender(ctx, e2.PortAddr(5), msg); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-ch:
		if !bytes.Equal(m.Data, msg.AppendEncode(nil)) {
			t.Fatal("corrupted authenticated delivery")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
}

// TestWheelGaugeSampled checks the endpoint's recurring gap job reports
// wheel occupancy through the metrics plane while sends are in flight.
func TestWheelGaugeSampled(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{Metrics: reg, RTO: 20 * time.Millisecond}
	e1, e2, _ := pairConfig(t, netsim.Profile{Name: "delay-5ms", PropDelay: 5 * time.Millisecond}, cfg)
	ch, _ := collect(t, e2, 5)
	sender, _ := e1.OpenPort(9)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			sendOK(t, sender, e2.PortAddr(5), []byte("tick"))
		}
	}()
	for i := 0; i < 50; i++ {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("delivered %d/50", i)
		}
	}
	<-done
	deadline := time.Now().Add(2 * time.Second)
	for reg.GaugeValue(obs.GWheelTimers) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("wheel gauge never sampled above zero")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
