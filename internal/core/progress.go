package core

// Progress is one live heartbeat from rank 0 of a running training,
// emitted at every evaluation point (the Curve's cadence: EvalEvery
// iterations, or end of epoch). It exists for observers — the serve SSE
// stream and structured logs relay it verbatim — and carries no state the
// Result does not already record. Heartbeats come from the evaluation
// goroutine (evaluate.go), in order, each once its accuracy is known, and all
// of them before Run returns.
type Progress struct {
	// Iter and Epoch locate the heartbeat in the run.
	Iter  int `json:"iter"`
	Epoch int `json:"epoch"`
	// SimSeconds is rank 0's simulated clock at the heartbeat.
	SimSeconds float64 `json:"sim_seconds"`
	// Acc and Loss are the evaluation accuracy and last training loss.
	Acc  float64 `json:"acc"`
	Loss float64 `json:"loss"`
	// Format is the wire format the current scheme is sending at the
	// evaluation point — the adaptive controller's current choice, or empty
	// for static schemes.
	Format string `json:"format,omitempty"`
}
