package core

import (
	"fmt"

	"mocha/internal/mnet"
	"mocha/internal/netsim"
	"mocha/internal/transport"
	"mocha/internal/wire"
)

// SimSite is one simulated site before its node starts: Config has Site,
// Stack and Directory set, Datagram is the stack's own. A site hook fills
// in the rest, may wrap Datagram or Stack, and sets MNet for the endpoint.
type SimSite struct {
	Config
	Datagram transport.Datagram
	MNet     mnet.Config
}

// StartSimSites starts sites 1..n on sim, each with its own stack, an MNet
// endpoint and the full directory, handing each to hook before its node
// starts: the one way the public API, the paper harness and the tests
// build a simulated cluster. On error it closes the nodes it started; sim
// stays the caller's.
func StartSimSites(sim *transport.SimNetwork, n int, hook func(*SimSite)) (map[wire.SiteID]*Node, error) {
	directory := make(map[wire.SiteID]string, n)
	stacks := make(map[wire.SiteID]*transport.SimStack, n)
	for i := 1; i <= n; i++ {
		stack, err := sim.NewStack(netsim.NodeID(i))
		if err != nil {
			return nil, fmt.Errorf("site %d: %w", i, err)
		}
		stacks[wire.SiteID(i)] = stack
		directory[wire.SiteID(i)] = stack.Datagram().LocalAddr()
	}
	nodes := make(map[wire.SiteID]*Node, n)
	for i := 1; i <= n; i++ {
		site := wire.SiteID(i)
		node, err := startSimSite(site, stacks[site], directory, hook)
		if err != nil {
			for _, started := range nodes {
				_ = started.Close()
			}
			return nil, fmt.Errorf("site %d: %w", i, err)
		}
		nodes[site] = node
	}
	return nodes, nil
}

// startSimSite builds one site's node over stack: a first start, or a
// restart on the stack netsim hands a rebooted site.
func startSimSite(site wire.SiteID, stack *transport.SimStack, directory map[wire.SiteID]string, hook func(*SimSite)) (*Node, error) {
	s := SimSite{Config: Config{Site: site, Stack: stack, Directory: directory}, Datagram: stack.Datagram()}
	hook(&s)
	s.Endpoint = mnet.NewEndpoint(s.Datagram, s.MNet)
	node, err := NewNode(s.Config)
	if err != nil {
		_ = s.Endpoint.Close()
		return nil, err
	}
	return node, nil
}
