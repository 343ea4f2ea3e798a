package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mocha/internal/mnet"
	"mocha/internal/obs"
	"mocha/internal/wire"
)

// client owns the node's client port: it sends application-thread requests
// to the synchronization thread and routes grants and nacks back to the
// waiting threads.
type client struct {
	node *Node
	port *mnet.Port

	mu     sync.Mutex
	grants map[grantKey]chan grantOrNack

	// carriage tracks the goroutines carrying RELEASELOCKs to their homes
	// (see carryRelease).
	carriage *carriage
}

type grantKey struct {
	lock   wire.LockID
	thread wire.ThreadID
}

// grantOrNack is the client port's delivery to a waiting Lock call.
type grantOrNack struct {
	grant *wire.Grant
	nack  *wire.LockNack
}

func newClient(n *Node) (*client, error) {
	port, err := n.ep.OpenPort(PortClient)
	if err != nil {
		return nil, err
	}
	c := &client{
		node:     n,
		port:     port,
		grants:   make(map[grantKey]chan grantOrNack),
		carriage: newCarriage(),
	}
	port.SetHandler(c.handle)
	return c, nil
}

// handle routes one message arriving on the client port.
func (c *client) handle(m mnet.Message) {
	p, err := wire.Unmarshal(m.Data)
	if err != nil {
		if c.node.log.On() {
			c.node.log.Logf("client", "bad message: %v", err)
		}
		return
	}
	switch msg := p.(type) {
	case *wire.Grant:
		c.mu.Lock()
		ch := c.grants[grantKey{msg.Lock, msg.Thread}]
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- grantOrNack{grant: msg}:
			default:
				if c.node.log.On() {
					c.node.log.Logf("client", "grant channel full for lock %d", msg.Lock)
				}
			}
			return
		}
		// No thread is waiting for this grant. Either it is a late
		// revision of an acquisition that already completed (the thread
		// currently holds the lock locally — ignore it), or the requester
		// abandoned the acquisition and the lock must be handed back so
		// it is not stuck with a phantom holder.
		st := c.node.getLockLocal(msg.Lock)
		st.mu.Lock()
		holding := st.holder == msg.Thread
		st.mu.Unlock()
		if holding {
			return
		}
		if c.node.log.On() {
			c.node.log.Logf("client", "returning unwanted grant of lock %d for thread %d", msg.Lock, msg.Thread)
		}
		c.autoRelease(msg)
	case *wire.LockNack:
		c.mu.Lock()
		ch := c.grants[grantKey{msg.Lock, msg.Thread}]
		c.mu.Unlock()
		if ch != nil {
			select {
			case ch <- grantOrNack{nack: msg}:
			default:
			}
		}
	default:
		if c.node.log.On() {
			c.node.log.Logf("client", "unhandled %s on client port", p.Kind())
		}
	}
}

// expectGrant registers interest in grants for (lock, thread). The channel
// is buffered to absorb revised grants.
func (c *client) expectGrant(lock wire.LockID, thread wire.ThreadID) chan grantOrNack {
	ch := make(chan grantOrNack, 4)
	c.mu.Lock()
	c.grants[grantKey{lock, thread}] = ch
	c.mu.Unlock()
	return ch
}

// dropGrant unregisters interest.
func (c *client) dropGrant(lock wire.LockID, thread wire.ThreadID) {
	c.mu.Lock()
	delete(c.grants, grantKey{lock, thread})
	c.mu.Unlock()
}

// autoRelease hands back a grant nobody is waiting for.
func (c *client) autoRelease(g *wire.Grant) {
	c.carryRelease(&wire.ReleaseLock{
		Lock:       g.Lock,
		Releaser:   c.node.cfg.Site,
		Thread:     g.Thread,
		NewVersion: g.Version,
		Shared:     g.Shared,
		Aborted:    true,
	}, nil, nil)
}

// carryRelease hands one RELEASELOCK to the release carriage and returns
// at once: a tracked goroutine runs first (when given — a forwarding home's
// re-ship insurance, which must reach the new home ahead of the release),
// sends the release up the sendToHome ladder (home, re-resolved route),
// tallies the outcome, and then calls settle with it (when given
// — the releaser's commit-and-reopen-the-gate step). The ladder runs on the
// client's own context, not the caller's: a release whose Unlock has already
// returned must not die with that call's deadline. The returned channel
// delivers the same outcome to a caller that chooses to wait for it; every
// RELEASELOCK this site sends leaves through here. Once Node.Close has
// closed the carriage a release is failed without being sent.
func (c *client) carryRelease(rel *wire.ReleaseLock, first func(), settle func(error)) <-chan error {
	done := make(chan error, 1)
	finish := func(err error) {
		if err != nil {
			c.node.obs().Inc(obs.CReleaseFailures)
			if c.node.log.On() {
				c.node.log.Logf("fault", "release of lock %d by thread %d not delivered: %v", rel.Lock, rel.Thread, err)
			}
		}
		if settle != nil {
			settle(err)
		}
		done <- err
	}
	if !c.carriage.begin() {
		finish(ErrClosed)
		return done
	}
	go func() {
		defer c.carriage.done()
		if first != nil {
			first()
		}
		if c.node.fireFault(FaultContext{
			Point: FPDropRelease, Lock: rel.Lock, Thread: rel.Thread, Version: rel.NewVersion,
		}).Drop {
			finish(fmt.Errorf("fault injected at %s", FPDropRelease))
			return
		}
		start := time.Now()
		err := c.sendToHome(c.carriage.ctx, rel, rel.Lock)
		if err == nil {
			c.node.obs().Observe(obs.HReleaseAck, time.Since(start))
		}
		finish(err)
	}()
	return done
}

// sendToHome routes a control message to the lock's current best-known
// home manager. An unreachable home is retried against a re-resolved
// route: the HomeMoved broadcast of a standby that promoted the lock, or of
// a surrogate that took over the slice, may have landed meanwhile — the
// paper's "application threads which time out attempting to contact the
// failed synchronization thread can query the local daemon thread to
// obtain the location of the newly created surrogate". There is no third
// rung. Nobody but the home knows its standby, and a standby that has not
// promoted yet would acknowledge the frame and then drop it as not its own
// — a release counted delivered and lost. Until the broadcast lands, the
// message fails here and the caller's own recovery takes over (lease,
// retry).
func (c *client) sendToHome(ctx context.Context, p wire.Payload, lock wire.LockID) error {
	// Control requests fit one fragment; let mnet encode them in place
	// instead of marshalling to an intermediate blob.
	app := wire.Appender{P: p}
	try := func(site wire.SiteID) error {
		addr, err := c.node.syncAddrOf(site)
		if err != nil {
			return err
		}
		sendCtx, cancel := context.WithTimeout(ctx, c.node.cfg.RequestTimeout)
		defer cancel()
		return c.port.SendAppender(sendCtx, addr, app)
	}
	home, _ := c.node.homeOf(lock)
	err := try(home)
	if err == nil {
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if re, _ := c.node.homeOf(lock); re != home {
		if err = try(re); err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return fmt.Errorf("%w: %v", ErrNoSync, err)
}

// sendToSite delivers a control message to one specific manager site,
// bypassing route resolution (used to follow a NackNotHome redirect).
func (c *client) sendToSite(ctx context.Context, p wire.Payload, site wire.SiteID) error {
	addr, err := c.node.syncAddrOf(site)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNoSync, err)
	}
	sendCtx, cancel := context.WithTimeout(ctx, c.node.cfg.RequestTimeout)
	defer cancel()
	if err := c.port.SendAppender(sendCtx, addr, wire.Appender{P: p}); err != nil {
		return fmt.Errorf("%w: %v", ErrNoSync, err)
	}
	return nil
}
