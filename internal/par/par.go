// Package par is the process-wide data-parallel worker budget shared by the
// simulator's hot kernels (internal/compress, internal/collective) and the
// tensor/nn training kernels. It exists so goroutine-level parallelism inside
// a kernel composes with the job-level parallelism of the experiment engine
// and the trainer's per-rank goroutines instead of multiplying against them.
//
// The budget rule, stated here and nowhere else: one dispatch fans out into
// at most Budget() ÷ (goroutines registered through Enter as issuing kernels
// at that moment) chunks and never fewer than one, where the budget is
// GOMAXPROCS unless SetBudget says otherwise and every core.Run enters its
// World ranks, less those waiting at a collective rendezvous, for as long as
// it runs — so concurrent engine jobs and each job's ranks are counted by
// one sum, ranks first.
//
// Chunk boundaries are never allowed to influence results — callers may only
// parallelize loops whose iterations are independent (elementwise maps,
// gathers/scatters over disjoint indices, output-row partitions of a matmul)
// or whose reduction is exactly associative (float max). That is what keeps
// parallel runs bit-identical to scalar runs, the repo-wide reproducibility
// contract.
//
// Nested-dispatch policy: a chunk function may itself call For/ForChunks
// (an attention layer parallelized over samples calls matmul kernels that
// chunk over rows). The partition of a dispatch depends only on the rule
// above; its placement depends on pool slots. A chunk goes to the pool only
// while fewer chunks than pool workers minus one (and than the budget minus
// one) are queued or running, and runs on the dispatching goroutine
// otherwise. Every queued chunk therefore has an idle worker to run it, no
// matter how many workers are themselves waiting to join a nested dispatch,
// so the pool cannot deadlock or oversubscribe however rank goroutines ×
// engine jobs × kernels stack, and no goroutine needs an identity.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MinWork is the scalar work (element count, or an explicit estimate via
// ForChunksWork) below which a chunked dispatch costs more in scheduling
// than it saves in compute; smaller loops run inline.
const MinWork = 8192

var (
	budget atomic.Int64
	// callers counts the goroutines Enter has registered.
	callers atomic.Int64
)

func init() { budget.Store(int64(runtime.GOMAXPROCS(0))) }

// SetBudget sets the number of cores kernels may occupy (see the package
// comment for how a dispatch divides it); values below 1 clamp to 1 (fully
// inline execution).
func SetBudget(n int) {
	if n < 1 {
		n = 1
	}
	budget.Store(int64(n))
}

// Budget returns the current budget.
func Budget() int { return int(budget.Load()) }

// Enter registers n goroutines as issuing kernels from now on and Leave takes
// n back out. core.Run enters its World ranks for the length of the run; a
// rank leaves for as long as it waits at a collective rendezvous, where it
// issues nothing and the ranks still computing can use its share.
func Enter(n int) { callers.Add(int64(n)) }

// Callers returns how many goroutines are registered: entered, less left.
func Callers() int { return int(callers.Load()) }

// Leave undoes Enter. A goroutine nobody entered may leave and re-enter too
// (a Cluster driven outside core.Run): the count dips below what is really
// running for the wait, which can only make a dispatch fan out more.
func Leave(n int) { callers.Add(int64(-n)) }

// pool is a fixed set of worker goroutines sized once to GOMAXPROCS; For
// feeds it chunks. A persistent pool keeps steady-state iterations free of
// goroutine churn.
var (
	poolOnce sync.Once
	poolCh   chan poolTask
	// inflight counts the chunks queued on or running in the pool. It never
	// exceeds the worker count minus one, so a send on poolCh never blocks.
	inflight atomic.Int64
)

type poolTask struct {
	// fn is the dispatch's chunk function itself (not a per-chunk closure),
	// so enqueueing c chunks allocates once per dispatch, not once per chunk.
	fn            func(chunk, lo, hi int)
	chunk, lo, hi int
	wg            *sync.WaitGroup
}

func ensurePool() {
	poolOnce.Do(func() {
		workers := runtime.GOMAXPROCS(0)
		poolCh = make(chan poolTask, workers)
		for i := 0; i < workers; i++ {
			go func() {
				for t := range poolCh {
					t.fn(t.chunk, t.lo, t.hi)
					inflight.Add(-1)
					t.wg.Done()
				}
			}()
		}
	})
}

// chunksFor returns how many contiguous ranges a dispatch splits n items of
// the given total scalar work into: at most the budget's share per registered
// caller, never so many that chunks drop below MinWork/2 work, and never more
// than n.
func chunksFor(n, work int) int {
	w := Budget()
	if c := int(callers.Load()); c > 1 {
		w /= c
	}
	if w <= 1 || work < MinWork || n <= 1 {
		return 1
	}
	if max := work / (MinWork / 2); w > max {
		w = max
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PlanChunks reports how many chunks ForChunksWork(n, work, ·) would use at
// the current budget. Kernels call it to take an allocation-free scalar
// path when the answer is 1: passing a closure to ForChunksWork forces the
// closure to the heap even when it ends up running inline, and the budget-1
// train step is required to be allocation-free in steady state.
func PlanChunks(n, work int) int { return chunksFor(n, work) }

// For runs fn over [0, n) split into contiguous chunks executed on the
// worker pool. fn(lo, hi) must treat its iterations as independent of every
// other chunk's — results must not depend on chunk boundaries. Small n (or a
// budget of 1) runs inline on the caller's goroutine.
func For(n int, fn func(lo, hi int)) {
	ForChunks(n, func(_, lo, hi int) { fn(lo, hi) })
}

// ForChunks is For with the chunk ordinal exposed, for callers that combine
// per-chunk partial results (e.g. an exact max reduction). It returns the
// number of chunks used; fn is called exactly once per chunk with ordinals
// 0..chunks-1 covering [0, n) in order.
func ForChunks(n int, fn func(chunk, lo, hi int)) int {
	return dispatch(n, chunksFor(n, n), fn)
}

// ForChunksWork is ForChunks with an explicit scalar-work estimate for the
// inline/chunk-count decision, for loops whose items are coarser than one
// element: matmul output rows (k·n flops each), convolution planes and term
// blocks, attention samples. n still bounds the chunk count; work
// only gates dispatch and granularity.
func ForChunksWork(n, work int, fn func(chunk, lo, hi int)) int {
	return dispatch(n, chunksFor(n, work), fn)
}

// acquire takes one of the pool's slots if fewer than slots are taken.
func acquire(slots int64) bool {
	if inflight.Add(1) <= slots {
		return true
	}
	inflight.Add(-1)
	return false
}

func dispatch(n, c int, fn func(chunk, lo, hi int)) int {
	if c == 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return 1
	}
	ensurePool()
	slots := int64(min(Budget(), cap(poolCh)) - 1)
	size := (n + c - 1) / c
	var wg sync.WaitGroup
	for i := 0; i < c; i++ {
		lo := min(i*size, n)
		hi := min(lo+size, n)
		// The caller's goroutine does the final chunk instead of idling at
		// the WaitGroup, and any chunk the pool has no slot for (a nested
		// dispatch, or many ranks dispatching at once).
		if i == c-1 || !acquire(slots) {
			fn(i, lo, hi)
			continue
		}
		// Add before the send: a worker may run the task and Done it before
		// a post-send Add would execute.
		wg.Add(1)
		poolCh <- poolTask{fn: fn, chunk: i, lo: lo, hi: hi, wg: &wg}
	}
	wg.Wait()
	return c
}
