package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"pactrain/internal/core"
)

// EventPayload is the one wire shape for everything the server reports
// about a job as it happens: the SSE stream's data frames and the
// `-log-format json` log lines are both exactly this, so a consumer parses
// one schema no matter how it listens.
type EventPayload struct {
	// Job names the job the event belongs to.
	Job string `json:"job,omitempty"`
	// Type is "state" for job lifecycle transitions, otherwise the engine
	// event kind ("submitted", "train-done", "deduped", "cache-hit",
	// "progress").
	Type string `json:"type"`
	// State accompanies Type "state".
	State JobState `json:"state,omitempty"`
	// Label and Fingerprint identify the grid cell on engine events.
	Label       string  `json:"label,omitempty"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	SimSeconds  float64 `json:"sim_seconds,omitempty"`
	// CacheAgeSeconds rides on cache hits: how old the served on-disk entry
	// was.
	CacheAgeSeconds float64 `json:"cache_age_seconds,omitempty"`
	Error           string  `json:"error,omitempty"`
	// Progress carries a trainer heartbeat on Type "progress".
	Progress *core.Progress `json:"progress,omitempty"`
}

// eventRecord is one published event in a job's replay ring: the SSE frame
// fields, pre-marshaled once at publish time.
type eventRecord struct {
	seq  int
	name string
	data []byte
}

// jobEventRing bounds each job's replay ring. Sized to hold a quick grid's
// full event history; past it, the oldest events fall off and a reconnecting
// client's replay restarts from the oldest retained seq.
const jobEventRing = 256

// subBuffer is the per-subscriber channel depth; a consumer that falls this
// far behind is disconnected rather than allowed to block the publisher,
// and reconnects with Last-Event-ID.
const subBuffer = 64

// sseKeepalive is the idle-comment interval that keeps proxies from
// timing out a quiet stream.
const sseKeepalive = 15 * time.Second

// publishLocked appends one event to a job's replay ring, fans it out to
// live subscribers, and (in json log mode) writes the structured log line.
// A subscriber too slow to drain its buffer is dropped — its channel closes
// and the SSE client reconnects with Last-Event-ID — so a stuck reader can
// never block a worker. Callers hold s.mu.
func (s *Server) publishLocked(j *job, p EventPayload) {
	p.Job = j.id
	data, err := json.Marshal(p)
	if err != nil {
		return
	}
	j.eventSeq++
	rec := eventRecord{seq: j.eventSeq, name: p.Type, data: data}
	j.events = append(j.events, rec)
	if len(j.events) > jobEventRing {
		j.events = j.events[len(j.events)-jobEventRing:]
	}
	for ch := range j.subs {
		select {
		case ch <- rec:
		default:
			close(ch)
			delete(j.subs, ch)
		}
	}
	if s.opt.LogFormat == "json" {
		fmt.Fprintf(s.opt.Log, "%s\n", data)
	}
}

// subscribe snapshots a job's replay (events with seq > after) and, unless
// the job already finished, registers a live channel. The replay and the
// registration happen under one lock acquisition, so no event can fall
// between them.
func (s *Server) subscribe(id string, after int) (replay []eventRecord, ch chan eventRecord, terminal, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, found := s.jobs[id]
	if !found {
		return nil, nil, false, false
	}
	for _, rec := range j.events {
		if rec.seq > after {
			replay = append(replay, rec)
		}
	}
	if j.state == JobDone || j.state == JobFailed {
		return replay, nil, true, true
	}
	ch = make(chan eventRecord, subBuffer)
	if j.subs == nil {
		j.subs = make(map[chan eventRecord]struct{})
	}
	j.subs[ch] = struct{}{}
	return replay, ch, false, true
}

// unsubscribe detaches a live channel; it is a no-op when the publisher or
// the job's terminal transition already closed it.
func (s *Server) unsubscribe(id string, ch chan eventRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return
	}
	if _, live := j.subs[ch]; live {
		delete(j.subs, ch)
		close(ch)
	}
}

// handleJobEvents streams a job's events as Server-Sent Events: every frame
// carries an id (the job-local seq) and an EventPayload data line, so a
// client that reconnects with Last-Event-ID resumes exactly where it
// stopped. The stream closes after the terminal state event; a subscriber
// to an already-finished job gets the buffered replay and an immediate
// close.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	after := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			after = n
		}
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	id := r.PathValue("id")
	replay, ch, terminal, ok := s.subscribe(id, after)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown job id"))
		return
	}
	if ch != nil {
		defer s.unsubscribe(id, ch)
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// The stream must outlive any server-wide write timeout.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})

	write := func(rec eventRecord) {
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", rec.seq, rec.name, rec.data)
	}
	for _, rec := range replay {
		write(rec)
	}
	flusher.Flush()
	if terminal {
		return
	}

	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case rec, open := <-ch:
			if !open {
				// Publisher dropped us (slow) or the job finished.
				return
			}
			write(rec)
			flusher.Flush()
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		}
	}
}
