package mocha

import (
	"fmt"

	"mocha/internal/hostfile"
	"mocha/internal/runtime"
	"mocha/internal/transport"
)

// JoinCluster starts one real site in a multi-process deployment: it binds
// the UDP endpoint listed for this site in the host file and joins the
// cluster over real sockets. Every process must run the same binary (or
// binaries registering the same task classes), exactly as every JVM in the
// paper's deployment loaded the same Mocha classes.
//
// The host file format is documented in cmd/mochahosts; site 1 is the home
// site and must be started first.
func JoinCluster(hostfilePath string, id SiteID, registry *Registry, opts ...Option) (*Site, error) {
	hf, err := hostfile.Load(hostfilePath)
	if err != nil {
		return nil, fmt.Errorf("mocha: %w", err)
	}
	return JoinClusterEntries(hf.Directory(), id, registry, opts...)
}

// JoinClusterEntries is JoinCluster with an explicit site directory
// (site ID to UDP endpoint address), for callers that build the directory
// programmatically.
func JoinClusterEntries(directory map[SiteID]string, id SiteID, registry *Registry, opts ...Option) (*Site, error) {
	o := newOptions(opts)
	addr, ok := directory[id]
	if !ok {
		return nil, fmt.Errorf("mocha: site %d not in host file", id)
	}
	if registry == nil {
		registry = runtime.NewRegistry()
	}

	stack, err := transport.NewRealStack(addr)
	if err != nil {
		return nil, fmt.Errorf("mocha: bind %s: %w", addr, err)
	}
	repo := runtime.NewCodeRepository()
	for _, name := range registry.Names() {
		repo.Add(name, []byte("mocha class image: "+name))
	}
	s, err := newSite(&o, id, stack, directory, registry, repo)
	if err != nil {
		_ = stack.Close()
		return nil, err
	}
	return s, nil
}
