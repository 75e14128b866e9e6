package engine

// The cache-peer protocol makes N serve instances behave like one logical
// cache: an engine that misses its local disk cache asks its configured
// peers before committing to a training. Fingerprints are deterministic and
// training is deterministic for a fingerprint, so a peer's entry is exactly
// the bytes this instance would have produced — the protocol only moves
// work, never changes results.
//
// Wire format (one route, mounted by NewPeerServer):
//
//	GET {base}/cache/v1/entry/{fp}?from=ID
//
//	200  body = the cacheEntry JSON envelope (identical to the on-disk
//	     file bytes' schema): the peer has the Result.
//	404  the peer has no entry, its call for fp failed, or it declines to
//	     hold the request (below): the caller moves on.
//	202  empty: the peer held the request on an in-flight call for the
//	     full long-poll (or the caller went away); ask again.
//
// The answering instance arbitrates; the caller only asks each peer in turn,
// re-asks on 202 and stops at the first 200. IDs come from crypto/rand at
// New, so they are unique without configuration. Each call carries a
// `training` latch that closes once the owner commits to local training,
// after its disk cache and every peer have missed. A latched call is a
// promise, so the server holds the request until it completes. A call still
// resolving is the symmetric race — both instances are mid-consult for the
// same fingerprint — and the server holds only when its own ID is strictly
// smaller than the caller's; otherwise it answers 404 and the caller goes on
// to train. A wait on a resolving call therefore always points at a smaller
// ID, so the smallest instance in any race never waits on one and no cycle of
// waits can form. A missing `from` (a bare probe) or an instance listed as
// its own peer compares <= its own ID and is never held.
//
// The caller's 404 can be stale: an instance that asked before the smaller
// one had the fingerprint in flight saw a plain miss, and the smaller one
// then finds it still resolving and goes on to train too. So a call that
// told a smaller caller to go ahead records it (`yielded`) and asks its peers
// once more before it commits; the smaller instance holds that request until
// it has the Result. Latch and flag change under the engine lock, so a race
// among instances that list each other trains once.
//
// Every failure mode — peer down, malformed body, peer's training failed —
// degrades to a local training: duplicated work at worst, never a wrong or
// missing result.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"pactrain/internal/core"
)

const (
	// peerEntryPrefix is the route under which NewPeerServer resolves
	// fingerprints; clients append the fingerprint.
	peerEntryPrefix = "/cache/v1/entry/"

	// peerLongPoll caps how long the server holds one request on an
	// in-flight call before answering 202; the caller re-asks.
	peerLongPoll = 10 * time.Second
	// peerClientTimeout bounds one peer HTTP request end to end; it leaves
	// headroom over peerLongPoll so a full-length hold answers.
	peerClientTimeout = 30 * time.Second
	// peerMaxBody bounds a peer response body; a recorded Result with full
	// comm logs is a few MB, so this is generous without being unbounded.
	peerMaxBody = 128 << 20
)

// NewPeerServer exposes an engine's cache — and its in-flight trainings —
// to sibling instances over the cache-peer protocol. Mount it alongside the
// instance's main API (the serve subsystem mounts it under the same mux).
func NewPeerServer(e *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+peerEntryPrefix+"{fp}", func(w http.ResponseWriter, r *http.Request) {
		fp := r.PathValue("fp")
		if !validFingerprint(fp) {
			http.Error(w, "malformed fingerprint", http.StatusBadRequest)
			return
		}
		res, status := e.peerLookup(r.Context(), fp, r.URL.Query().Get("from"))
		switch status {
		case http.StatusOK:
			raw, err := encodeEntry(res)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(raw)
		case http.StatusNotFound:
			http.Error(w, "no entry", http.StatusNotFound)
		default:
			w.WriteHeader(status)
		}
	})
	return mux
}

// validFingerprint accepts exactly the hex digests core.Config.Fingerprint
// produces; anything else (path tricks included) is rejected before it can
// reach a cache path.
func validFingerprint(fp string) bool {
	if fp == "" || len(fp) > 128 {
		return false
	}
	for _, r := range fp {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// peerLookup answers one request for fp from the instance named from with
// the HTTP status of the wire format: disk cache, then the in-flight table,
// holding on a call only where the package comment allows it.
func (e *Engine) peerLookup(ctx context.Context, fp, from string) (*core.Result, int) {
	if e.cache != nil {
		if res, ok := e.cache.Load(fp); ok {
			return res, http.StatusOK
		}
	}
	// Completed calls stay in the table as the singleflight memo, so a
	// diskless instance still serves peers from memory.
	e.mu.Lock()
	c, ok := e.inflight[fp]
	resolving := false
	if ok {
		select {
		case <-c.done:
		case <-c.training:
		default:
			resolving = true
			if from != "" && from < e.id {
				// The 404 below sends a smaller instance on to train.
				c.yielded = true
			}
		}
	}
	e.mu.Unlock()
	if !ok || resolving && from <= e.id {
		return nil, http.StatusNotFound
	}
	timer := time.NewTimer(peerLongPoll)
	defer timer.Stop()
	select {
	case <-c.done:
		if c.err != nil {
			return nil, http.StatusNotFound
		}
		return c.res, http.StatusOK
	case <-timer.C:
	case <-ctx.Done():
	}
	return nil, http.StatusAccepted
}

// consultPeers asks each configured peer in turn for fp, re-asking a peer
// that answers 202. ok is true with the first peer-served Result. false means
// every peer missed (or failed): c's training latch is then closed, making
// the call a promise to remote instances, and the caller trains locally. If
// the server told a smaller instance to go ahead during the round, the
// peers are asked once more instead (package comment).
func (e *Engine) consultPeers(job Job, fp string, c *call) (*core.Result, bool) {
	for {
		for _, peer := range e.peers {
			res, status, err := e.peerFetch(peer, fp, job.Config.World)
			for err == nil && status == http.StatusAccepted {
				res, status, err = e.peerFetch(peer, fp, job.Config.World)
			}
			switch {
			case err != nil:
				e.bump(&e.stats.PeerErrors)
				e.logf("engine: %-32s %s peer %s error: %v", job.Label, fp, peer, err)
			case status == http.StatusNotFound:
				e.bump(&e.stats.PeerMisses)
			default:
				e.bump(&e.stats.PeerHits)
				if e.onEvent != nil {
					e.onEvent(Event{Kind: EventPeerHit, Label: job.Label, Fingerprint: fp,
						SimSeconds: res.SimSeconds, Peer: peer, Stats: e.Stats()})
				}
				e.logf("engine: %-32s %s peer hit (%s)", job.Label, fp, peer)
				return res, true
			}
		}
		e.mu.Lock()
		again := c.yielded
		c.yielded = false
		if !again {
			close(c.training)
		}
		e.mu.Unlock()
		if !again {
			return nil, false
		}
	}
}

// peerFetch performs one protocol request against one peer base URL and
// returns 200 with the decoded Result, 404 or 202; anything else, an entry
// decodeEntry refuses included, or one not recorded at world ranks (fits),
// is an error.
func (e *Engine) peerFetch(base, fp string, world int) (*core.Result, int, error) {
	resp, err := e.peerHTTP.Get(strings.TrimRight(base, "/") + peerEntryPrefix + fp + "?from=" + e.id)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, peerMaxBody))
	if err != nil {
		return nil, 0, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		res, ok := decodeEntry(body)
		if !ok {
			return nil, 0, fmt.Errorf("peer %s: undecodable entry for %s", base, fp)
		}
		if !fits(res, world) {
			return nil, 0, fmt.Errorf("peer %s: entry for %s has %d ranks, job has %d",
				base, fp, len(res.WeightChecksums), world)
		}
		return res, http.StatusOK, nil
	case http.StatusNotFound, http.StatusAccepted:
		return nil, resp.StatusCode, nil
	}
	return nil, 0, fmt.Errorf("peer %s: status %d", base, resp.StatusCode)
}
