// Package loadgen holds only the in-process peer pair: two serve instances
// on loopback listeners, each configured as the other's cache peer. The
// service's latency and throughput under load are measured in one place,
// the benchmark's serve_mixed workload (benchmark/README.md), which boots
// this Pair; the package's tests drive it with scripted arrivals and
// assert the cross-instance invariants.
package loadgen

import (
	"context"
	"fmt"
	"net"
	"net/http"

	"pactrain/internal/serve"
)

// Pair is an in-process two-instance serving cluster wired as cache peers —
// the smallest deployment where the cross-instance paths (peer hits, peer
// singleflight) exist at all. Tests and the repository benchmark use it to
// measure a scaled-out service without containers or real networks.
type Pair struct {
	// Servers are the two serve instances, peer ids "peer0" and "peer1".
	Servers [2]*serve.Server
	// URLs are the instances' base URLs ("http://127.0.0.1:PORT").
	URLs []string

	https     [2]*http.Server
	listeners [2]net.Listener
}

// PairOptions shapes both instances of a Pair.
type PairOptions struct {
	// CacheDirs are the per-instance cache directories; empty strings run
	// both instances memo-only (peer serving still works from the memo).
	CacheDirs [2]string
	// Workers applies to each instance (serve default when 0).
	Workers int
	// Parallelism bounds each instance's engine (serve default when 0).
	Parallelism int
}

// NewPair boots both instances. Each instance needs the other's base URL
// before it exists, so the ports are reserved first — listen on :0 twice,
// read the bound addresses, then construct the servers against those URLs
// and serve on the already-open listeners.
func NewPair(opt PairOptions) (*Pair, error) {
	p := &Pair{}
	for i := range p.listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			p.close()
			return nil, fmt.Errorf("loadgen: reserve listener %d: %w", i, err)
		}
		p.listeners[i] = ln
		p.URLs = append(p.URLs, "http://"+ln.Addr().String())
	}
	for i := range p.Servers {
		s, err := serve.New(serve.Options{
			Parallelism: opt.Parallelism,
			CacheDir:    opt.CacheDirs[i],
			Workers:     opt.Workers,
			CachePeers:  []string{p.URLs[1-i]},
		})
		if err != nil {
			p.close()
			return nil, err
		}
		p.Servers[i] = s
		p.https[i] = &http.Server{Handler: s.Handler()}
		go func(hs *http.Server, ln net.Listener) {
			// ErrServerClosed is the normal shutdown path; anything else
			// surfaces as failures of the requests sent to this instance.
			_ = hs.Serve(ln)
		}(p.https[i], p.listeners[i])
	}
	return p, nil
}

// Shutdown drains both instances and closes their HTTP servers.
func (p *Pair) Shutdown(ctx context.Context) error {
	var first error
	for _, s := range p.Servers {
		if s == nil {
			continue
		}
		if err := s.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	for _, hs := range p.https {
		if hs == nil {
			continue
		}
		// The drain above finished every job, so no peer consult or client
		// request can still be running; what remains on these servers is
		// idle keep-alives and transport-dialed-but-unused connections
		// (StateNew, which a graceful Shutdown waits 5 whole seconds to
		// reap). Hard-close is instant and loses nothing here.
		if err := hs.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close releases whatever a failed NewPair already acquired.
func (p *Pair) close() {
	for _, ln := range p.listeners {
		if ln != nil {
			_ = ln.Close()
		}
	}
}
