package mnet

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mocha/internal/netsim"
	"mocha/internal/transport"
)

// hubNet builds one hub endpoint plus n peer endpoints on a simulated
// network with the given profile.
func hubNet(t *testing.T, profile netsim.Profile, cfg Config, n int) (*Endpoint, []*Endpoint) {
	t.Helper()
	seed := netsim.SeedFromEnv(11)
	t.Logf("network seed %d (set %s to replay)", seed, netsim.SeedEnv)
	sn := transport.NewSimNetwork(netsim.Config{Profile: profile, Seed: seed})
	eps := make([]*Endpoint, 0, n+1)
	for i := 0; i <= n; i++ {
		s, err := sn.NewStack(netsim.NodeID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, NewEndpoint(s.Datagram(), cfg))
	}
	t.Cleanup(func() {
		for _, e := range eps {
			_ = e.Close()
		}
		_ = sn.Close()
	})
	return eps[0], eps[1:]
}

// stressPayload builds a verifiable payload: every byte carries the
// (peer, message) identity, so a recycled or crossed packet buffer shows
// up as corruption at the receiver.
func stressPayload(peer, msg, size int) []byte {
	b := make([]byte, size)
	v := byte(peer*31 + msg*7 + 1)
	for i := range b {
		b[i] = v
	}
	return b
}

// runHubStress fires senders*msgs concurrent Sends from one hub endpoint
// to distinct peers and verifies every delivery byte-for-byte. The
// zero-delay Perfect profile makes the transport deliver synchronously
// inside Send, racing the initial transmit against its own ack; lossy
// profiles race the retransmit path against ack-time buffer recycling.
func runHubStress(t *testing.T, profile netsim.Profile, cfg Config, peers, msgs, maxSize int) Stats {
	t.Helper()
	hub, remotes := hubNet(t, profile, cfg, peers)

	var delivered atomic.Int64
	var corrupt atomic.Int64
	for _, ep := range remotes {
		p, err := ep.OpenPort(7)
		if err != nil {
			t.Fatal(err)
		}
		p.SetHandler(func(m Message) {
			if len(m.Data) == 0 {
				corrupt.Add(1)
				return
			}
			want := m.Data[0]
			for _, b := range m.Data {
				if b != want {
					corrupt.Add(1)
					return
				}
			}
			delivered.Add(1)
		})
	}
	sender, err := hub.OpenPort(9)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, peers*msgs)
	for pi := range remotes {
		for k := 0; k < msgs; k++ {
			wg.Add(1)
			go func(pi, k int) {
				defer wg.Done()
				size := 1 + (pi*1709+k*523)%maxSize
				if err := sender.Send(ctx, remotes[pi].PortAddr(7), stressPayload(pi, k, size)); err != nil {
					errs <- err
				}
			}(pi, k)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent send: %v", err)
	}

	total := int64(peers * msgs)
	deadline := time.Now().Add(20 * time.Second)
	for delivered.Load()+corrupt.Load() < total {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", delivered.Load(), total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if corrupt.Load() != 0 {
		t.Fatalf("%d corrupted deliveries: pooled packet buffers crossed", corrupt.Load())
	}
	st := hub.Stats()
	if st.MessagesSent != total {
		t.Fatalf("MessagesSent = %d, want %d", st.MessagesSent, total)
	}
	if st.SendFailures != 0 {
		t.Fatalf("SendFailures = %d, want 0", st.SendFailures)
	}
	return st
}

// TestConcurrentSendDistinctPeers hammers one endpoint with parallel
// Sends to six peers over a zero-delay network, so acks recycle pooled
// buffers while the flusher is still transmitting its copies.
// Run under -race in CI.
func TestConcurrentSendDistinctPeers(t *testing.T) {
	runHubStress(t, netsim.Perfect(), Config{RTO: 50 * time.Millisecond, MaxRetries: 8}, 6, 40, 6000)
}

// TestConcurrentSendLossyRetransmit adds loss so wheel-fired
// retransmissions race concurrent sends and ack-time buffer recycling.
func TestConcurrentSendLossyRetransmit(t *testing.T) {
	cfg := Config{RTO: 20 * time.Millisecond, MaxRetries: 40, Window: 32}
	st := runHubStress(t, netsim.Perfect().Lossy(0.25), cfg, 4, 15, 4000)
	if st.Retransmits == 0 {
		t.Fatal("lossy stress saw no retransmits; loss injection broken")
	}
}
