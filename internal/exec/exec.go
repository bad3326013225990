// Package exec is the shared execution layer under every parallel phase
// of the thirteen joins: a cancellable morsel-driven worker pool
// (exec.Pool), a buffer-recycling tier (exec.Arena), and per-phase
// execution statistics (exec.Stats).
//
// The layering is strict: exec contributes the task queues and orders
// (ascending ranges, the LIFO stack and the round-robin-by-node order —
// the scheduling policies of Section 6.2) and the *machinery* that runs
// them (goroutine fan-out, cancellation, memory reuse,
// instrumentation), and internal/join wires algorithm logic on top. No
// package outside exec spawns join goroutines directly.
//
// Cancellation contract: every phase observes the pool's context at
// morsel and task-pop boundaries. A cancelled pool finishes the morsel
// in flight, joins all workers (no goroutine outlives a phase), and
// returns ctx.Err() from the phase call.
package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mmjoin/internal/trace"
)

// MorselTuples is the stride in which chunk-parallel phases walk their
// input: large enough that the cancellation check between morsels is
// noise, small enough that cancellation is prompt (a morsel of 8-byte
// tuples is 512 KB of streaming work).
const MorselTuples = 1 << 16

// Queue hands out task ids to workers; implementations must be safe for
// concurrent Pop. NewRange and NewLIFO build the two the joins use.
type Queue interface {
	// Pop returns the next task id, or ok=false when drained.
	Pop() (id int, ok bool)
	// Len returns the initial number of tasks.
	Len() int
}

// rangeQueue hands out 0..n-1 in ascending order.
type rangeQueue struct {
	n    int64
	next int64
}

// NewRange returns a queue over task ids 0..n-1 in ascending order —
// the plain work list for phases with no scheduling policy of their
// own.
func NewRange(n int) Queue { return &rangeQueue{n: int64(n)} }

func (q *rangeQueue) Pop() (int, bool) {
	i := atomic.AddInt64(&q.next, 1) - 1
	if i >= q.n {
		return 0, false
	}
	return int(i), true
}

func (q *rangeQueue) Len() int { return int(q.n) }

// lifo pops tasks in reverse insertion order — the stack the paper
// found in the PR* implementations ("a LIFO-task queue (which is
// actually a stack)").
type lifo struct {
	order []int
	next  int64 // counts down from len(order)
}

// NewLIFO builds a stack that pops the given insertion order in reverse.
func NewLIFO(order []int) Queue { return &lifo{order: order, next: int64(len(order))} }

func (q *lifo) Pop() (int, bool) {
	i := atomic.AddInt64(&q.next, -1)
	if i < 0 {
		return 0, false
	}
	return q.order[i], true
}

func (q *lifo) Len() int { return len(q.order) }

// SequentialOrder returns 0..n-1: ascending partition indices, the
// insertion order of the original PR* and CPR* implementations. Because
// consecutive partitions are consecutive in virtual memory, the first
// |threads| tasks popped all read from the same NUMA region.
func SequentialOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// RoundRobinOrder reorders task ids so consecutive pops come from
// different NUMA nodes (Section 6.2: "we insert co-partitions into the
// task queue in a round-robin manner"). nodeOf maps a task to the node
// holding its data. Within a node, the original relative order is kept.
func RoundRobinOrder(n int, nodes int, nodeOf func(task int) int) []int {
	perNode := make([][]int, nodes)
	for i := 0; i < n; i++ {
		nd := nodeOf(i)
		if nd < 0 || nd >= nodes {
			nd = 0
		}
		perNode[nd] = append(perNode[nd], i)
	}
	order := make([]int, 0, n)
	for len(order) < n {
		for nd := 0; nd < nodes; nd++ {
			if len(perNode[nd]) > 0 {
				order = append(order, perNode[nd][0])
				perNode[nd] = perNode[nd][1:]
			}
		}
	}
	return order
}

// Pool runs the phases of one join execution: a fixed worker count, a
// context consulted at every task boundary, an arena for buffer reuse,
// and a Stats record that accumulates one entry per phase.
//
// A Pool is owned by a single driver goroutine; phases run one at a
// time (Run and RunQueue block until the phase completes or is
// cancelled).
type Pool struct {
	ctx       context.Context
	threads   int
	arena     *Arena
	stats     Stats
	phaseHook func(phase string)
	tracer    *trace.Tracer
	pid       int
	driver    *trace.Shard
	shards    []*trace.Shard
	// sched, when non-nil, replaces concurrent execution with the
	// deterministic single-goroutine replay of schedule.go.
	sched SchedulePolicy
	// gate, when non-nil, is the shared worker-slot limiter: every
	// worker holds a slot while running and offers it back at morsel and
	// task-pop boundaries (see Gate).
	gate *Gate
}

// NewPool creates a pool of `threads` workers (minimum 1) bound to ctx.
// Buffers recycle through the process-wide Shared arena unless
// SetArena overrides it.
func NewPool(ctx context.Context, threads int) *Pool {
	if threads < 1 {
		threads = 1
	}
	if ctx == nil {
		//mmjoin:allow(ctxflow) documented fallback: a nil ctx means the caller opted out of cancellation
		ctx = context.Background()
	}
	return &Pool{ctx: ctx, threads: threads, arena: Shared,
		stats: Stats{Workers: threads}}
}

// SetArena redirects buffer recycling to a private arena (tests and
// callers that need isolated reuse accounting).
func (p *Pool) SetArena(a *Arena) {
	if a != nil {
		p.arena = a
	}
}

// SetPhaseHook installs a callback invoked with the phase name at the
// start of every phase, before any worker runs. Used for tracing and
// for deterministic cancellation tests.
func (p *Pool) SetPhaseHook(fn func(phase string)) { p.phaseHook = fn }

// SetGate attaches a shared worker-slot gate: each of the pool's
// workers acquires one slot before running a phase and yields it at
// morsel/task boundaries whenever other workers (typically another
// query's pool) are waiting. A nil gate (the default) keeps the
// original ungated execution. Deterministic schedule replays ignore
// the gate — they are single-goroutine by construction.
func (p *Pool) SetGate(g *Gate) { p.gate = g }

// SetQueueStrategy records the scheduling strategy of the join phase
// (e.g. "lifo(sequential)", "lifo(round-robin)") in the stats.
func (p *Pool) SetQueueStrategy(s string) { p.stats.Queue = s }

// SetTracer attaches a span recorder under the given process label
// (typically the algorithm name): every subsequent phase emits a
// whole-phase span on a driver track plus per-task/per-morsel spans on
// one track per worker, and PhaseStat.Metrics is populated. A nil
// tracer (trace.Disabled) keeps the task loops on their untraced fast
// path — the only cost of tracing-off is one pointer check per phase.
func (p *Pool) SetTracer(tr *trace.Tracer, label string) {
	if tr == nil {
		p.tracer, p.driver, p.shards = nil, nil, nil
		return
	}
	p.tracer = tr
	pid := tr.NewProcess(label)
	p.pid = pid
	p.driver = tr.NewShard(pid, 0, "driver")
	p.shards = make([]*trace.Shard, p.threads)
	for i := range p.shards {
		p.shards[i] = tr.NewShard(pid, i+1, fmt.Sprintf("worker %d", i))
	}
}

// Tracer returns the attached tracer (nil when tracing is off).
func (p *Pool) Tracer() *trace.Tracer { return p.tracer }

// Counter emits a point-in-time counter sample on the pool's trace
// process track (e.g. cumulative spilled bytes after a spill phase).
// A no-op without a tracer.
func (p *Pool) Counter(name string, value float64) {
	if p.tracer == nil {
		return
	}
	p.tracer.Counter(p.pid, name, p.tracer.Since(time.Now()), value)
}

// Threads returns the worker count.
func (p *Pool) Threads() int { return p.threads }

// Arena returns the pool's buffer arena.
func (p *Pool) Arena() *Arena { return p.arena }

// Context returns the pool's context.
func (p *Pool) Context() context.Context { return p.ctx }

// Err returns the context error, if any.
func (p *Pool) Err() error { return p.ctx.Err() }

// Stats returns the accumulated per-phase statistics. The pointer is
// only safe to read between phases (drivers read it once, after the
// last phase).
func (p *Pool) Stats() *Stats { return &p.stats }

// Worker is one worker's view of a running phase. Workers are handed to
// the phase function; w.ID indexes per-worker state (chunks, sinks).
type Worker struct {
	// ID is the worker index in [0, Threads).
	ID      int
	pool    *Pool
	tasks   int
	counted bool
	// bytes and allocs accumulate the hot-loop counters reported via
	// AddBytes/AddAllocs; they feed PhaseStat and the spans.
	bytes  int64
	allocs int64
	// tr carries this worker's tracing state for the current phase; nil
	// when tracing is off (the fast-path check of Morsels and RunQueue).
	tr *workerTrace
	// slotLost records that a TryYield failed to re-acquire the gate
	// slot (context expired between release and re-acquire): the worker
	// returns slotless and Run must not release on its behalf.
	slotLost bool
	_        [4]byte // separate hot counters of adjacent workers
}

// workerTrace is one worker's per-phase tracing state: its span shard
// plus the latency/wait accumulators the phase metrics are built from.
type workerTrace struct {
	shard *trace.Shard
	phase string
	busy  time.Duration
	lat   trace.Histogram
	wait  trace.Histogram
}

// Cancelled reports whether the pool's context is done. Cheap enough
// for morsel boundaries, not for per-tuple loops.
func (w *Worker) Cancelled() bool { return w.pool.ctx.Err() != nil }

// AddBytes reports n bytes touched by the worker's hot loop (streamed
// tuples plus modeled table traffic). It is a plain add on a
// worker-private counter — cheap enough to call at morsel or task
// granularity regardless of whether tracing is on.
func (w *Worker) AddBytes(n int64) { w.bytes += n }

// AddAllocs reports n allocation events (fresh hash tables, sort
// scratch buffers, run copies) from the worker's hot path.
func (w *Worker) AddAllocs(n int64) { w.allocs += n }

// Morsels iterates [0, n) in MorselTuples strides, calling fn(begin,
// end) per stride with a cancellation check in between. It returns
// false if the phase was cancelled before covering all of n. Each
// stride counts as one executed task in the phase stats; with a tracer
// attached every stride emits one span.
func (w *Worker) Morsels(n int, fn func(begin, end int)) bool {
	w.counted = true
	if w.tr != nil {
		return w.morselsTraced(n, fn)
	}
	ctx := w.pool.ctx
	gate := w.pool.gate
	for begin := 0; begin < n; begin += MorselTuples {
		if ctx.Err() != nil {
			return false
		}
		if gate.TryYield(ctx) != nil {
			w.slotLost = true
			return false
		}
		end := begin + MorselTuples
		if end > n {
			end = n
		}
		w.tasks++
		fn(begin, end)
	}
	return true
}

// morselsTraced is the tracing variant of Morsels: identical control
// flow plus one span (with byte/alloc deltas) per stride. The span is
// a stack-held trace.OpenSpan, so steady-state tracing performs no
// allocation beyond the shard's amortized span append.
func (w *Worker) morselsTraced(n int, fn func(begin, end int)) bool {
	ctx := w.pool.ctx
	gate := w.pool.gate
	tr := w.tr
	stride := 0
	for begin := 0; begin < n; begin += MorselTuples {
		if ctx.Err() != nil {
			return false
		}
		if gate.TryYield(ctx) != nil {
			w.slotLost = true
			return false
		}
		end := begin + MorselTuples
		if end > n {
			end = n
		}
		w.tasks++
		b0, a0 := w.bytes, w.allocs
		sp := tr.shard.Begin(tr.phase, stride)
		fn(begin, end)
		sp.AddBytes(w.bytes - b0)
		sp.AddAllocs(w.allocs - a0)
		d := sp.End()
		tr.busy += d
		tr.lat.Observe(d)
		stride++
	}
	return true
}

// Run executes fn once per worker (the fork/join shape of the
// chunk-parallel phases) and waits for all workers. It returns the
// context error if the pool was cancelled before or during the phase;
// workers are expected to poll cancellation via Morsels or Cancelled.
// With one worker the phase runs inline on the caller's goroutine.
func (p *Pool) Run(phase string, fn func(w *Worker)) error {
	if err := p.ctx.Err(); err != nil {
		return err
	}
	if p.phaseHook != nil {
		p.phaseHook(phase)
	}
	start := time.Now()
	phaseSpan := p.driver.Begin(phase, -1)
	workers := p.makeWorkers(phase)
	call := fn
	if p.tracer != nil {
		// Workers that never enter Morsels or a queue drain (plain
		// fork/join chunk work) still get one whole-chunk span; workers
		// that did record finer spans drop the open whole-chunk span
		// unended (an unended OpenSpan is a free stack value).
		call = func(w *Worker) {
			tr := w.tr
			sp := tr.shard.Begin(tr.phase, -1)
			fn(w)
			if !w.counted {
				sp.AddBytes(w.bytes)
				sp.AddAllocs(w.allocs)
				d := sp.End()
				tr.busy += d
				tr.lat.Observe(d)
			}
		}
	}
	switch {
	case p.sched != nil:
		// Deterministic replay: workers run sequentially on the driver
		// goroutine in schedule order.
		for _, i := range p.sched.WorkerOrder(p.threads) {
			call(&workers[i])
		}
	case p.threads == 1:
		if p.gate.Acquire(p.ctx) == nil {
			call(&workers[0])
			if !workers[0].slotLost {
				p.gate.Release()
			}
		}
	default:
		var wg sync.WaitGroup
		for i := range workers {
			wg.Add(1)
			go func(w *Worker) {
				defer wg.Done()
				if p.gate.Acquire(p.ctx) != nil {
					return
				}
				// The worker may lose its slot inside call (a TryYield
				// whose re-acquire raced a cancelled context): releasing
				// here again would over-credit the gate.
				defer func() {
					if !w.slotLost {
						p.gate.Release()
					}
				}()
				call(w)
			}(&workers[i])
		}
		wg.Wait()
	}
	p.record(phase, start, phaseSpan, workers)
	return p.ctx.Err()
}

// makeWorkers builds the per-phase worker slice, attaching tracing
// state when a tracer is set. The workerTrace values live through the
// Worker.tr pointers.
func (p *Pool) makeWorkers(phase string) []Worker {
	workers := make([]Worker, p.threads)
	for i := range workers {
		workers[i] = Worker{ID: i, pool: p}
	}
	if p.tracer != nil {
		traces := make([]workerTrace, p.threads)
		for i := range workers {
			traces[i] = workerTrace{shard: p.shards[i], phase: phase}
			workers[i].tr = &traces[i]
		}
	}
	return workers
}

// RunQueue drains q with all workers: each worker loops popping task
// ids and calling fn until the queue is empty or the pool is cancelled.
// Cancellation is checked before every pop, so a cancelled phase stops
// after at most one task per worker.
func (p *Pool) RunQueue(phase string, q Queue, fn func(w *Worker, task int)) error {
	if p.sched != nil {
		return p.runQueueScheduled(phase, q, fn)
	}
	return p.Run(phase, func(w *Worker) {
		w.counted = true
		if w.tr != nil {
			w.drainTraced(q, fn)
			return
		}
		ctx := p.ctx
		gate := p.gate
		for {
			if ctx.Err() != nil {
				return
			}
			if gate.TryYield(ctx) != nil {
				w.slotLost = true
				return
			}
			t, ok := q.Pop()
			if !ok {
				return
			}
			w.tasks++
			fn(w, t)
		}
	})
}

// RunQueueErr is RunQueue for phases whose tasks can fail (spill I/O):
// fn returns an error, the first one is captured, and every task popped
// after a failure returns immediately without running its body — the
// queue still drains, so task counts and spans stay balanced under any
// schedule. The pool's cancellation error takes precedence over task
// errors, preserving the RunContext cancellation contract.
func (p *Pool) RunQueueErr(phase string, q Queue, fn func(w *Worker, task int) error) error {
	var mu sync.Mutex
	var first error
	failed := atomic.Bool{}
	err := p.RunQueue(phase, q, func(w *Worker, task int) {
		if failed.Load() {
			return
		}
		if err := fn(w, task); err != nil {
			mu.Lock()
			if first == nil {
				first = err
			}
			mu.Unlock()
			failed.Store(true)
		}
	})
	if err != nil {
		return err
	}
	return first
}

// runQueueScheduled is RunQueue under a deterministic schedule: the
// driver goroutine pops tasks one at a time and hands each to the
// schedule-chosen worker, interleaving task execution across workers
// exactly as the seed dictates. All of Run's bookkeeping (phase span,
// stats entry, metrics) is preserved.
func (p *Pool) runQueueScheduled(phase string, q Queue, fn func(w *Worker, task int)) error {
	if err := p.ctx.Err(); err != nil {
		return err
	}
	if p.phaseHook != nil {
		p.phaseHook(phase)
	}
	start := time.Now()
	phaseSpan := p.driver.Begin(phase, -1)
	workers := p.makeWorkers(phase)
	for i := range workers {
		workers[i].counted = true
	}
	for p.ctx.Err() == nil {
		t, ok := q.Pop()
		if !ok {
			break
		}
		w := &workers[p.sched.NextWorker(p.threads)]
		w.tasks++
		if tr := w.tr; tr != nil {
			b0, a0 := w.bytes, w.allocs
			sp := tr.shard.Begin(tr.phase, t)
			fn(w, t)
			sp.AddBytes(w.bytes - b0)
			sp.AddAllocs(w.allocs - a0)
			d := sp.End()
			tr.busy += d
			tr.lat.Observe(d)
			tr.wait.Observe(0)
		} else {
			fn(w, t)
		}
	}
	p.record(phase, start, phaseSpan, workers)
	return p.ctx.Err()
}

// drainTraced is the tracing variant of the RunQueue worker loop: every
// popped task emits one span carrying its queue wait and byte/alloc
// deltas.
func (w *Worker) drainTraced(q Queue, fn func(w *Worker, task int)) {
	ctx := w.pool.ctx
	gate := w.pool.gate
	tr := w.tr
	for {
		if ctx.Err() != nil {
			return
		}
		if gate.TryYield(ctx) != nil {
			w.slotLost = true
			return
		}
		popStart := time.Now()
		t, ok := q.Pop()
		if !ok {
			return
		}
		w.tasks++
		b0, a0 := w.bytes, w.allocs
		wait := time.Since(popStart)
		sp := tr.shard.Begin(tr.phase, t)
		sp.SetWait(wait)
		fn(w, t)
		sp.AddBytes(w.bytes - b0)
		sp.AddAllocs(w.allocs - a0)
		d := sp.End()
		tr.busy += d
		tr.lat.Observe(d)
		tr.wait.Observe(wait)
	}
}

// record appends the phase's stats entry and closes the driver-track
// span opened at phase start (inert when tracing is off).
func (p *Pool) record(phase string, start time.Time, phaseSpan trace.OpenSpan, workers []Worker) {
	st := PhaseStat{
		Name:           phase,
		Wall:           time.Since(start),
		TasksPerWorker: make([]int, len(workers)),
	}
	for i := range workers {
		n := workers[i].tasks
		if !workers[i].counted {
			// A plain fork/join worker that tracked no morsels still
			// executed its one chunk.
			n = 1
		}
		st.TasksPerWorker[i] = n
		st.Tasks += n
		st.Bytes += workers[i].bytes
		st.Allocs += workers[i].allocs
	}
	if p.tracer != nil {
		st.Metrics = phaseMetrics(workers, st.Wall)
	}
	phaseSpan.AddBytes(st.Bytes)
	phaseSpan.AddAllocs(st.Allocs)
	phaseSpan.End()
	p.stats.Phases = append(p.stats.Phases, st)
}

// phaseMetrics folds the workers' per-phase tracing state into the
// aggregated PhaseMetrics attached to the stats entry.
func phaseMetrics(workers []Worker, wall time.Duration) *trace.PhaseMetrics {
	m := &trace.PhaseMetrics{}
	var totalBusy, maxBusy time.Duration
	for i := range workers {
		tr := workers[i].tr
		if tr == nil {
			continue
		}
		m.TaskLatency.Merge(&tr.lat)
		m.QueueWait.Merge(&tr.wait)
		totalBusy += tr.busy
		if tr.busy > maxBusy {
			maxBusy = tr.busy
		}
	}
	if wall > 0 && len(workers) > 0 {
		m.Occupancy = float64(totalBusy) / (float64(wall) * float64(len(workers)))
	}
	if meanBusy := float64(totalBusy) / float64(len(workers)); meanBusy > 0 {
		m.Imbalance = float64(maxBusy) / meanBusy
	}
	return m
}
