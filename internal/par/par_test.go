package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	defer SetBudget(Budget())
	for _, budget := range []int{1, 2, 7, runtime.GOMAXPROCS(0) * 4} {
		for _, n := range []int{0, 1, MinWork - 1, MinWork, MinWork*3 + 17} {
			SetBudget(budget)
			hits := make([]int32, n)
			For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("budget %d n %d: index %d visited %d times", budget, n, i, h)
				}
			}
		}
	}
}

func TestForChunksPartialsPartitionTheRange(t *testing.T) {
	defer SetBudget(Budget())
	SetBudget(8)
	n := MinWork * 4
	c := ForChunks(n, func(chunk, lo, hi int) {})
	if c < 1 {
		t.Fatalf("chunk count %d", c)
	}
	// Partial sums accumulated per chunk must combine to the scalar total.
	partial := make([]int64, c)
	got := ForChunks(n, func(chunk, lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		partial[chunk] = s
	})
	if got != c {
		t.Fatalf("chunk count changed between identical calls: %d vs %d", got, c)
	}
	var total int64
	for _, s := range partial {
		total += s
	}
	want := int64(n) * int64(n-1) / 2
	if total != want {
		t.Fatalf("partials sum to %d, want %d", total, want)
	}
}

func TestSmallInputsStayInline(t *testing.T) {
	defer SetBudget(Budget())
	SetBudget(16)
	if c := ForChunks(MinWork-1, func(chunk, lo, hi int) {}); c != 1 {
		t.Fatalf("sub-MinWork input split into %d chunks", c)
	}
}

func TestSetBudgetClampsToOne(t *testing.T) {
	defer SetBudget(Budget())
	SetBudget(-3)
	if b := Budget(); b != 1 {
		t.Fatalf("budget %d after SetBudget(-3)", b)
	}
	if c := ForChunks(MinWork*8, func(chunk, lo, hi int) {}); c != 1 {
		t.Fatalf("budget 1 produced %d chunks", c)
	}
}

func TestForChunksWorkGatesOnWorkNotItems(t *testing.T) {
	defer SetBudget(Budget())
	SetBudget(8)
	// Few items but heavy per-item work: chunk count is bounded by items.
	if c := ForChunksWork(4, MinWork*100, func(chunk, lo, hi int) {}); c != 4 {
		t.Fatalf("4 heavy items split into %d chunks, want 4", c)
	}
	// Many items but sub-MinWork total work: stays inline.
	if c := ForChunksWork(MinWork*4, MinWork-1, func(chunk, lo, hi int) {}); c != 1 {
		t.Fatalf("light loop split into %d chunks, want 1", c)
	}
	// PlanChunks agrees with the dispatch decision.
	if p, c := PlanChunks(MinWork*4, MinWork*4), ForChunks(MinWork*4, func(chunk, lo, hi int) {}); p != c {
		t.Fatalf("PlanChunks %d != ForChunks %d", p, c)
	}
}

func TestNestedDispatchRunsInlineAndCoversRange(t *testing.T) {
	defer SetBudget(Budget())
	SetBudget(8)
	outer := MinWork * 2
	inner := MinWork * 2
	hits := make([]int32, inner)
	var nestedChunks int32
	// Outer chunks land on pool workers or the caller; the nested dispatch
	// inside each must use the identical partition, wherever its chunks run,
	// and complete without deadlock.
	For(outer, func(lo, hi int) {
		c := ForChunks(inner, func(chunk, lo2, hi2 int) {
			for i := lo2; i < hi2; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		atomic.StoreInt32(&nestedChunks, int32(c))
	})
	// Every outer chunk ran the nested loop once over the full range.
	outerChunks := PlanChunks(outer, outer)
	for i, h := range hits {
		if int(h) != outerChunks {
			t.Fatalf("index %d visited %d times, want %d", i, h, outerChunks)
		}
	}
	// The nested partition matches the non-nested plan at the same budget.
	if want := PlanChunks(inner, inner); int(nestedChunks) != want {
		t.Fatalf("nested dispatch used %d chunks, plan says %d", nestedChunks, want)
	}
}

func TestConcurrentDispatchesDrainWithoutDeadlock(t *testing.T) {
	defer SetBudget(Budget())
	SetBudget(8)
	// More concurrent dispatchers than pool workers forces the no-slot
	// inline fallback on a small machine and exercises the pool under
	// contention everywhere else.
	const dispatchers = 16
	var total atomic.Int64
	done := make(chan struct{})
	for d := 0; d < dispatchers; d++ {
		go func() {
			defer func() { done <- struct{}{} }()
			For(MinWork*4, func(lo, hi int) {
				var local int64
				for i := lo; i < hi; i++ {
					local++
				}
				total.Add(local)
			})
		}()
	}
	for d := 0; d < dispatchers; d++ {
		<-done
	}
	if got, want := total.Load(), int64(dispatchers*MinWork*4); got != want {
		t.Fatalf("covered %d iterations, want %d", got, want)
	}
}

// TestContendedNestedDispatchFinishes is the trainer's shape on a small host:
// 8 rank goroutines, each issuing kernels that nest, at budget 2. No goroutine
// has an identity, so nothing but the slot rule keeps workers from all
// waiting on chunks nobody is left to run; a hang fails on the test timeout,
// a lost or doubled chunk on the count.
func TestContendedNestedDispatchFinishes(t *testing.T) {
	defer SetBudget(Budget())
	SetBudget(2)
	const callers, reps, n = 8, 50, MinWork * 2
	outerChunks := PlanChunks(n, n)
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				For(n, func(_, _ int) {
					For(n, func(lo, hi int) { total.Add(int64(hi - lo)) })
				})
			}
		}()
	}
	wg.Wait()
	if got, want := total.Load(), int64(callers*reps*outerChunks*n); got != want {
		t.Fatalf("covered %d iterations, want %d", got, want)
	}
}

func TestEnterSharesTheBudgetAmongCallers(t *testing.T) {
	defer SetBudget(Budget())
	SetBudget(8)
	const n = MinWork * 16
	plan := func() int { return PlanChunks(n, n) }
	if got := plan(); got != 8 {
		t.Fatalf("no callers entered: %d chunks, want 8", got)
	}
	Enter(4)
	if got := plan(); got != 2 {
		t.Fatalf("4 callers at budget 8: %d chunks, want 2", got)
	}
	Enter(8) // a second job: 12 callers, fewer cores than callers
	if got := plan(); got != 1 {
		t.Fatalf("12 callers at budget 8: %d chunks, want 1", got)
	}
	Leave(4)
	if got := plan(); got != 1 {
		t.Fatalf("8 callers at budget 8: %d chunks, want 1", got)
	}
	Leave(7) // all but one of them wait at a rendezvous
	if got := plan(); got != 8 {
		t.Fatalf("1 caller at budget 8: %d chunks, want 8", got)
	}
	Leave(1)
	if got := plan(); got != 8 {
		t.Fatalf("every caller left: %d chunks, want 8", got)
	}
}

// BenchmarkDispatchContended is 8 callers dispatching at once, the trainer's
// ranks before they were counted against the budget. A dispatch that takes a
// process-wide lock (goroutine ids once came from runtime.Stack, under the
// runtime's print lock) shows here as time per dispatch growing with callers.
func BenchmarkDispatchContended(b *testing.B) {
	defer SetBudget(Budget())
	SetBudget(runtime.GOMAXPROCS(0))
	const callers, n = 8, MinWork * 2
	var sink atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i += callers {
				For(n, func(lo, hi int) { sink.Add(int64(hi - lo)) })
			}
		}()
	}
	wg.Wait()
}
