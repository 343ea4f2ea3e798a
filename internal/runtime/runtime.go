// Package runtime is Mocha's wide-area computing infrastructure: site
// managers and Mocha Servers, remote thread spawning with code shipping
// ("an initial push of application code followed by demand pulling of new
// application code object classes"), the travel-bag Mocha object handed to
// every remotely evaluated task, remote printing and stack dumps, and
// capability-based execution permissions. It layers on package core for
// state sharing and on package mnet for communication.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mocha/internal/core"
	"mocha/internal/eventlog"
	"mocha/internal/mnet"
	"mocha/internal/obs"
	"mocha/internal/wire"
)

// Config parameterizes a site's runtime.
type Config struct {
	// Registry holds the task factories this binary can execute.
	Registry *Registry
	// Repo is the code repository (meaningful at the home site, which
	// answers demand pulls).
	Repo *CodeRepository
	// MaxServers bounds concurrently executing remote tasks at this site.
	MaxServers int
	// Output receives remote println/stack-dump traffic at the home site.
	// Defaults to io.Discard.
	Output io.Writer
	// TaskPermissions is granted to tasks hosted at this site.
	TaskPermissions Permissions
	// ForwardEvents ships this site's event log to the home site's
	// collector — the paper's "basic debugging and event logging
	// facilities that provide insight into execution of code at remote
	// locations". Best effort: events are dropped rather than ever
	// blocking the logging site.
	ForwardEvents bool
}

// Runtime is one site's wide-area runtime.
type Runtime struct {
	node *core.Node
	cfg  Config
	port *mnet.Port
	mgr  *SiteManager

	nextSpawn atomic.Uint64

	mu          sync.Mutex
	acks        map[uint64]chan *wire.SpawnAck
	results     map[uint64]chan *wire.TaskResult
	codeReplies map[uint64]chan *wire.CodeReply
	cache       map[string]ClassImage // demand-pull cache
	members     map[wire.SiteID]memberInfo
}

// memberInfo records one joined site at the home.
type memberInfo struct {
	Name       string
	DaemonAddr string
	JoinedAt   int64
}

// Runtime errors.
var (
	// ErrNoServer reports that the target site refused the spawn because
	// all its Mocha Servers are busy.
	ErrNoServer = errors.New("runtime: no server available at target site")
	// ErrUnknownClass reports a spawn of a class the target cannot link.
	ErrUnknownClass = errors.New("runtime: unknown task class")
	// ErrPermission reports a travel-bag operation the task lacks rights
	// for.
	ErrPermission = errors.New("runtime: operation not permitted")
)

// New starts the runtime on a node.
func New(node *core.Node, cfg Config) (*Runtime, error) {
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	if cfg.Repo == nil {
		cfg.Repo = NewCodeRepository()
	}
	if cfg.Output == nil {
		cfg.Output = io.Discard
	}
	port, err := node.Endpoint().OpenPort(core.PortRuntime)
	if err != nil {
		return nil, fmt.Errorf("runtime: open port: %w", err)
	}
	rt := &Runtime{
		node:        node,
		cfg:         cfg,
		port:        port,
		mgr:         NewSiteManager(cfg.MaxServers),
		acks:        make(map[uint64]chan *wire.SpawnAck),
		results:     make(map[uint64]chan *wire.TaskResult),
		codeReplies: make(map[uint64]chan *wire.CodeReply),
		cache:       make(map[string]ClassImage),
		members:     make(map[wire.SiteID]memberInfo),
	}
	port.SetHandler(rt.handle)
	if cfg.ForwardEvents && node.Site() != wire.HomeSite {
		rt.startEventForwarder()
	}
	if node.Site() != wire.HomeSite {
		go rt.joinHome()
	}
	return rt, nil
}

// joinHome announces this site manager to the home site, retrying a few
// times because workers commonly start before the home does. On ack the
// site confirms (or updates) its view of the synchronization thread.
func (rt *Runtime) joinHome() {
	msg := &wire.Join{
		Site:       rt.node.Site(),
		Name:       fmt.Sprintf("site%d", rt.node.Site()),
		DaemonAddr: rt.node.Endpoint().PortAddr(core.PortDaemon),
	}
	addr, err := rt.node.RuntimeAddr(wire.HomeSite)
	if err != nil {
		return
	}
	blob := wire.Marshal(msg)
	for attempt := 0; attempt < 30; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), rt.node.RequestTimeout())
		err := rt.port.Send(ctx, addr, blob)
		cancel()
		if err == nil {
			return
		}
		select {
		case <-rt.node.Done():
			return
		case <-timeAfter(rt.node.RequestTimeout()):
		}
	}
	rt.node.Log().Logf("runtime", "join to home never acknowledged")
}

// timeAfter is a seam for the join retry pacing.
var timeAfter = func(d time.Duration) <-chan time.Time { return time.After(d) }

// Members reports the sites that have joined this (home) runtime.
func (rt *Runtime) Members() map[wire.SiteID]string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[wire.SiteID]string, len(rt.members))
	for id, m := range rt.members {
		out[id] = m.Name
	}
	return out
}

// startEventForwarder installs a log sink that ships events to the home
// collector from a dedicated goroutine, dropping when the queue is full.
func (rt *Runtime) startEventForwarder() {
	queue := make(chan *wire.Event, 256)
	var seq atomic.Uint64
	rt.node.Log().SetSink(func(e eventlog.Event) {
		if strings.HasPrefix(e.Category, "remote-") {
			return
		}
		msg := &wire.Event{
			Site:      rt.node.Site(),
			Seq:       seq.Add(1),
			UnixNanos: e.Time.UnixNano(),
			Category:  e.Category,
			Text:      e.Text,
			Msg:       e.Msg,
			Fields:    e.Fields,
		}
		select {
		case queue <- msg:
		default: // never block or backpressure the logging site
		}
	})
	go func() {
		addr, err := rt.node.RuntimeAddr(wire.HomeSite)
		if err != nil {
			return
		}
		for e := range queue {
			ctx, cancel := context.WithTimeout(context.Background(), rt.node.RequestTimeout())
			// Failures are dropped silently: logging a failed event send
			// would feed the forwarder its own output.
			_ = rt.port.Send(ctx, addr, wire.Marshal(e))
			cancel()
		}
	}()
}

// Node returns the underlying shared-object node.
func (rt *Runtime) Node() *core.Node { return rt.node }

// SiteManager returns the local server allocator.
func (rt *Runtime) SiteManager() *SiteManager { return rt.mgr }

// runtimeAddr resolves another site's runtime port.
func (rt *Runtime) runtimeAddr(site wire.SiteID) (string, error) {
	// Runtime traffic flows site-to-site on the shared directory.
	return rt.node.RuntimeAddr(site)
}

// handle processes runtime-port traffic.
func (rt *Runtime) handle(m mnet.Message) {
	p, err := wire.Unmarshal(m.Data)
	if err != nil {
		rt.node.Log().Logf("runtime", "bad message: %v", err)
		return
	}
	switch msg := p.(type) {
	case *wire.Spawn:
		rt.onSpawn(m.From, msg)
	case *wire.SpawnAck:
		rt.route(rt.acks, msg.SpawnID, msg)
	case *wire.TaskResult:
		rt.route(rt.results, msg.SpawnID, msg)
	case *wire.CodeRequest:
		rt.onCodeRequest(m.From, msg)
	case *wire.CodeReply:
		rt.route(rt.codeReplies, msg.SpawnID, msg)
	case *wire.Print:
		fmt.Fprintf(rt.cfg.Output, "[site%d #%d] %s\n", msg.Site, msg.SpawnID, msg.Text)
	case *wire.StackDump:
		fmt.Fprintf(rt.cfg.Output, "[site%d #%d] stack dump (%s):\n%s\n", msg.Site, msg.SpawnID, msg.Reason, msg.Stack)
	case *wire.Event:
		// Re-emit into the collector's typed stream: the structure
		// survives the hop instead of being flattened to text remotely.
		if log := rt.node.Log(); log.On() {
			fields := append([]obs.Field{obs.I("origin", int64(msg.Site))}, msg.Fields...)
			if msg.Msg == "" {
				log.Log("remote-"+msg.Category, msg.Text, fields[:1]...)
			} else {
				log.Log("remote-"+msg.Category, msg.Msg, fields...)
			}
		}
	case *wire.Join:
		rt.onJoin(m.From, msg)
	case *wire.JoinAck:
		if msg.OK {
			rt.node.Log().Logf("runtime", "joined home (sync at %s, epoch %d)", msg.SyncAddr, msg.Epoch)
		}
	default:
		rt.node.Log().Logf("runtime", "unhandled %s on runtime port", p.Kind())
	}
}

// route delivers a correlated reply to its waiter.
func (rt *Runtime) route(waiters any, id uint64, msg any) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	switch w := waiters.(type) {
	case map[uint64]chan *wire.SpawnAck:
		if ch, ok := w[id]; ok {
			select {
			case ch <- msg.(*wire.SpawnAck):
			default:
			}
		}
	case map[uint64]chan *wire.TaskResult:
		if ch, ok := w[id]; ok {
			select {
			case ch <- msg.(*wire.TaskResult):
			default:
			}
		}
	case map[uint64]chan *wire.CodeReply:
		if ch, ok := w[id]; ok {
			select {
			case ch <- msg.(*wire.CodeReply):
			default:
			}
		}
	}
}

// onSpawn services an incoming spawn request: allocate a server, link the
// class (caching the pushed image), acknowledge, and run the task.
func (rt *Runtime) onSpawn(replyTo string, msg *wire.Spawn) {
	nack := func(reason string) {
		ack := &wire.SpawnAck{SpawnID: msg.SpawnID, Site: rt.node.Site(), OK: false, Err: reason}
		rt.send(replyTo, ack)
	}
	if len(msg.ClassImage) > 0 {
		rt.mu.Lock()
		rt.cache[msg.ClassName] = NewClassImage(msg.ClassName, msg.ClassImage)
		rt.mu.Unlock()
	}
	task, ok := rt.cfg.Registry.New(msg.ClassName)
	if !ok {
		nack(fmt.Sprintf("class %q not linkable at site %d", msg.ClassName, rt.node.Site()))
		return
	}
	if !rt.mgr.Acquire() {
		nack("no server available")
		return
	}
	params, err := DecodeParams(msg.Params)
	if err != nil {
		rt.mgr.Release()
		nack(fmt.Sprintf("bad parameters: %v", err))
		return
	}
	ack := &wire.SpawnAck{SpawnID: msg.SpawnID, Site: rt.node.Site(), OK: true}
	rt.send(replyTo, ack)

	bag := &Mocha{
		rt:        rt,
		handle:    rt.node.NewHandle(msg.ClassName),
		spawnID:   msg.SpawnID,
		home:      msg.Home,
		class:     msg.ClassName,
		Parameter: params,
		Result:    NewParams(),
		perms:     rt.cfg.TaskPermissions,
	}
	go rt.runTask(task, bag)
}

// runTask executes one Mocha thread, converting panics into remote stack
// dumps and always reporting a terminal result home.
func (rt *Runtime) runTask(task Task, bag *Mocha) {
	defer rt.mgr.Release()
	defer func() {
		if r := recover(); r != nil {
			reason := fmt.Sprintf("panic: %v", r)
			bag.MochaPrintStackTrace(fmt.Errorf("%s", reason))
			bag.finish(reason)
			return
		}
		bag.finish("")
	}()
	rt.node.Log().Logf("runtime", "task %s #%d started", bag.class, bag.spawnID)
	task.MochaStart(bag)
}

// onJoin registers a site manager's membership announcement and tells it
// where the synchronization thread lives.
func (rt *Runtime) onJoin(replyTo string, msg *wire.Join) {
	if rt.node.Site() != wire.HomeSite {
		return
	}
	rt.mu.Lock()
	rt.members[msg.Site] = memberInfo{Name: msg.Name, DaemonAddr: msg.DaemonAddr}
	rt.mu.Unlock()
	rt.node.Log().Logf("runtime", "site %d (%s) joined", msg.Site, msg.Name)
	syncAddr, epoch := rt.node.HomeAddr()
	ack := &wire.JoinAck{
		Site:     msg.Site,
		OK:       true,
		SyncAddr: syncAddr,
		Epoch:    epoch,
	}
	rt.send(replyTo, ack)
}

// onCodeRequest answers a demand pull from the code repository.
func (rt *Runtime) onCodeRequest(replyTo string, msg *wire.CodeRequest) {
	img, found := rt.cfg.Repo.Get(msg.ClassName)
	reply := &wire.CodeReply{
		SpawnID:   msg.SpawnID,
		ClassName: msg.ClassName,
		Found:     found,
		Image:     img.Code,
	}
	rt.send(replyTo, reply)
}

// send transmits a runtime message, logging failures.
func (rt *Runtime) send(to string, p wire.Payload) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.node.RequestTimeout())
	defer cancel()
	if err := rt.port.Send(ctx, to, wire.Marshal(p)); err != nil {
		rt.node.Log().Logf("runtime", "send %s to %s failed: %v", p.Kind(), to, err)
	}
}

// ResultHandle tracks a spawned task, the return value of spawn():
// `rh = mocha.spawn("Myhello", p)`.
type ResultHandle struct {
	rt      *Runtime
	spawnID uint64
	site    wire.SiteID
	class   string
	ch      chan *wire.TaskResult
}

// Site reports where the task runs.
func (rh *ResultHandle) Site() wire.SiteID { return rh.site }

// Wait blocks for the task's Result object. A task that ended with an
// error or panic yields that error.
func (rh *ResultHandle) Wait(ctx context.Context) (*Params, error) {
	select {
	case res := <-rh.ch:
		rh.rt.mu.Lock()
		delete(rh.rt.results, rh.spawnID)
		rh.rt.mu.Unlock()
		if res.Err != "" {
			return nil, fmt.Errorf("runtime: task %s at site %d: %s", rh.class, rh.site, res.Err)
		}
		return DecodeParams(res.Result)
	case <-ctx.Done():
		return nil, fmt.Errorf("runtime: awaiting result of %s: %w", rh.class, ctx.Err())
	}
}

// Spawn starts a task class at a specific site, pushing the class image
// when the home repository has one.
func (rt *Runtime) Spawn(ctx context.Context, site wire.SiteID, class string, params *Params) (*ResultHandle, error) {
	if params == nil {
		params = NewParams()
	}
	spawnID := rt.nextSpawn.Add(1)

	ackCh := make(chan *wire.SpawnAck, 1)
	resCh := make(chan *wire.TaskResult, 1)
	rt.mu.Lock()
	rt.acks[spawnID] = ackCh
	rt.results[spawnID] = resCh
	rt.mu.Unlock()
	cleanup := func() {
		rt.mu.Lock()
		delete(rt.acks, spawnID)
		delete(rt.results, spawnID)
		rt.mu.Unlock()
	}

	var image []byte
	if img, ok := rt.cfg.Repo.Get(class); ok {
		image = img.Code
	}
	msg := &wire.Spawn{
		SpawnID:    spawnID,
		Home:       rt.node.Site(),
		ClassName:  class,
		ClassImage: image,
		Params:     params.Encode(),
	}
	addr, err := rt.runtimeAddr(site)
	if err != nil {
		cleanup()
		return nil, err
	}
	if err := rt.port.Send(ctx, addr, wire.Marshal(msg)); err != nil {
		cleanup()
		return nil, fmt.Errorf("runtime: spawn %s at site %d: %w", class, site, err)
	}

	select {
	case ack := <-ackCh:
		rt.mu.Lock()
		delete(rt.acks, spawnID)
		rt.mu.Unlock()
		if !ack.OK {
			rt.mu.Lock()
			delete(rt.results, spawnID)
			rt.mu.Unlock()
			if ack.Err == "no server available" {
				return nil, fmt.Errorf("%w (site %d)", ErrNoServer, site)
			}
			return nil, fmt.Errorf("%w: %s", ErrUnknownClass, ack.Err)
		}
		return &ResultHandle{rt: rt, spawnID: spawnID, site: site, class: class, ch: resCh}, nil
	case <-ctx.Done():
		cleanup()
		return nil, fmt.Errorf("runtime: spawn %s at site %d: %w", class, site, ctx.Err())
	}
}

// SpawnAny starts a task on the first site in the host file with a free
// server, skipping the home site — the paper's spawn that picks "a list of
// potential sites at which remote threads may be spawned".
func (rt *Runtime) SpawnAny(ctx context.Context, class string, params *Params) (*ResultHandle, error) {
	var lastErr error
	for _, site := range rt.node.Sites() {
		if site == rt.node.Site() {
			continue
		}
		rh, err := rt.Spawn(ctx, site, class, params)
		if err == nil {
			return rh, nil
		}
		lastErr = err
		if !errors.Is(err, ErrNoServer) {
			return nil, err
		}
	}
	if lastErr == nil {
		lastErr = errors.New("runtime: no remote sites in host file")
	}
	return nil, lastErr
}

// LocalBag builds a travel bag for the initiating application thread at
// the home site, so the main program uses the same API as spawned tasks.
func (rt *Runtime) LocalBag(name string) *Mocha {
	return &Mocha{
		rt:        rt,
		handle:    rt.node.NewHandle(name),
		spawnID:   0,
		home:      rt.node.Site(),
		class:     name,
		Parameter: NewParams(),
		Result:    NewParams(),
		perms:     AllPermissions(),
	}
}
