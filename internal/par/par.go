// Package par holds a process-wide core budget that no kernel reads: every
// kernel runs on the goroutine that calls it, and a run's parallelism is its
// ranks times the engine's concurrent jobs. The budget remains only because
// the repository benchmark's probes still set and read it.
package par

import (
	"runtime"
	"sync/atomic"
)

var budget atomic.Int64

func init() { budget.Store(int64(runtime.GOMAXPROCS(0))) }

// SetBudget sets the budget; values below 1 clamp to 1.
func SetBudget(n int) {
	if n < 1 {
		n = 1
	}
	budget.Store(int64(n))
}

// Budget returns the current budget.
func Budget() int { return int(budget.Load()) }
