package core

import (
	"pactrain/internal/data"
	"pactrain/internal/metrics"
	"pactrain/internal/nn"
)

// evaluator takes rank 0's evaluations off the critical path: at an
// evaluation point rank 0 copies its state into one replica and trains on
// while a goroutine evaluates the copy. Evaluations run one at a time, in
// order, each appending its Curve point and then firing OnProgress; Run joins
// the last one before it returns.
type evaluator struct {
	cfg     *Config
	testSet *data.Dataset
	curve   *metrics.Curve
	replica *nn.Model     // the undrawn shell Run builds; snapshots overwrite its state
	done    chan struct{} // closed when the latest evaluation has finished
}

// snapshot starts evaluating model's current state for the point pt, whose
// Acc it fills in, once the previous evaluation has finished. pac, the run's
// PacTrain-family hook or nil, names the heartbeat's wire format as of now.
func (e *evaluator) snapshot(model *nn.Model, pac *pacTrainHook, pt metrics.Point) {
	e.wait()
	e.replica.CopyStateFrom(model)
	beat := Progress{Iter: pt.Iter, Epoch: pt.Epoch, SimSeconds: pt.SimTime, Loss: pt.Loss}
	if pac != nil {
		beat.Format = pac.CurrentFormat()
	}
	done := make(chan struct{})
	e.done = done
	go func() {
		defer close(done)
		pt.Acc = evaluate(e.replica, e.testSet)
		beat.Acc = pt.Acc
		e.curve.Add(pt)
		if e.cfg.OnProgress != nil {
			e.cfg.OnProgress(beat)
		}
	}()
}

// wait blocks until the latest evaluation, if any, has finished.
func (e *evaluator) wait() {
	if e.done != nil {
		<-e.done
	}
}

// evaluate computes test accuracy in chunks (eval compute is excluded from
// the simulated clock, matching how the paper reports training time).
func evaluate(model *nn.Model, testSet *data.Dataset) float64 {
	const chunk = 64
	correct := 0.0
	total := 0
	for from := 0; from < testSet.Len(); from += chunk {
		x, labels := testSet.View(from, chunk)
		out := model.Forward(x, false)
		correct += nn.Accuracy(out, labels) * float64(len(labels))
		total += len(labels)
	}
	if total == 0 {
		return 0
	}
	return correct / float64(total)
}
