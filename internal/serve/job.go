package serve

import (
	"fmt"
	"time"

	"pactrain/internal/harness"
)

// MaxSamples is the largest SubmitRequest.Samples a submission may ask for:
// ten full grids' default of 768, rounded up to a power of two.
const MaxSamples = 8192

// SubmitRequest is the body of POST /v1/experiments: an experiment id plus
// the harness options that shape its grid. Zero values take the harness
// defaults (world 8, preset sample counts, seed 1), exactly as the
// pactrain-bench flags do.
type SubmitRequest struct {
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	// Neither World nor Samples may be negative, and Samples may be at most
	// MaxSamples.
	World   int    `json:"world"`
	Samples int    `json:"samples"`
	Seed    uint64 `json:"seed"`
	// Collective selects the collective algorithm for every job in the grid
	// ("ring", "tree", "hierarchical"; empty = ring). "ring" and empty
	// coalesce onto the same job.
	Collective string `json:"collective,omitempty"`
	// Overlap selects the backward-overlap model for every job in the grid
	// ("none", "backward"; empty = none). "none" and empty coalesce onto
	// the same job.
	Overlap string `json:"overlap,omitempty"`
	// Priority overrides the admission queue level ("high" or "low");
	// empty infers it from the experiment: recost-only and quick
	// submissions queue high, fabric-sensitive and full grids queue low.
	// Priority never participates in coalescing — a high-priority twin
	// instead promotes the queued job both share.
	Priority string `json:"priority,omitempty"`
}

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle states, in order.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Progress counts a job's own engine activity while it runs: how many grid
// cells its run submitted and how each was satisfied. It is exact — every
// engine event is delivered to the one job whose run made the submission
// (Server.onEngineEvent).
type Progress struct {
	Submitted int    `json:"submitted"`
	Trained   int    `json:"trained"`
	Deduped   int    `json:"deduped"`
	CacheHits int    `json:"cache_hits"`
	LastEvent string `json:"last_event,omitempty"`
}

// job is the server-side record of one accepted submission.
type job struct {
	id  string
	key string
	def harness.Definition
	// opts is the normalized request; Engine and Log are injected at run
	// time so they never participate in the coalescing key.
	opts harness.Options

	state JobState
	// priority is the admission queue level the job waits at; a queued
	// low-priority job may be promoted by a coalescing high-priority twin.
	priority  Priority
	errMsg    string
	coalesced int // extra submissions folded onto this job
	progress  Progress

	// events is the bounded replay ring behind GET /v1/jobs/{id}/events;
	// eventSeq numbers this job's events from 1 and keeps counting past
	// ring eviction, so Last-Event-ID replay is exact whenever the
	// requested suffix is still buffered. subs holds the live stream
	// channels; simSeconds accumulates the simulated seconds of every grid
	// cell the engine delivered to this job (observed into the job_sim
	// histogram at completion).
	events     []eventRecord
	eventSeq   int
	subs       map[chan eventRecord]struct{}
	simSeconds float64

	created  time.Time
	started  time.Time
	finished time.Time

	resultJSON []byte
	// auditJSON is the job's counterfactual audit artifact
	// (audit.MarshalReports); nil when the experiment audited nothing
	// (no controller-driven runs in its grid).
	auditJSON []byte
}

// submitKey canonicalizes a request for coalescing: two requests with the
// same key describe byte-identical reports, so concurrent clients share
// one job.
func submitKey(id string, o harness.Options) string {
	return fmt.Sprintf("%s quick=%t world=%d samples=%d seed=%d collective=%s overlap=%s",
		id, o.Quick, o.World, o.Samples, o.Seed, o.Collective, o.Overlap)
}

// JobView is the wire representation of a job for the status endpoints.
type JobView struct {
	ID         string   `json:"id"`
	Experiment string   `json:"experiment"`
	State      JobState `json:"state"`
	// Priority is the admission queue level the job was (or is) waiting at.
	Priority Priority `json:"priority"`
	// Coalesced counts submissions beyond the first that were folded onto
	// this job while it was in flight.
	Coalesced  int           `json:"coalesced"`
	Options    SubmitRequest `json:"options"`
	Progress   Progress      `json:"progress"`
	Error      string        `json:"error,omitempty"`
	QueuedAt   string        `json:"queued_at"`
	StartedAt  string        `json:"started_at,omitempty"`
	FinishedAt string        `json:"finished_at,omitempty"`
}

// view snapshots a job for the API; callers hold the server mutex.
func (j *job) view() JobView {
	v := JobView{
		ID:         j.id,
		Experiment: j.def.ID,
		State:      j.state,
		Priority:   j.priority,
		Coalesced:  j.coalesced,
		Options: SubmitRequest{
			Experiment: j.def.ID,
			Quick:      j.opts.Quick,
			World:      j.opts.World,
			Samples:    j.opts.Samples,
			Seed:       j.opts.Seed,
			Collective: j.opts.Collective,
			Overlap:    j.opts.Overlap,
		},
		Progress: j.progress,
		Error:    j.errMsg,
		QueuedAt: j.created.UTC().Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return v
}
