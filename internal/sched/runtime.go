// The persistent runtime: one resident pool of workers executing the task
// DAGs of any number of concurrently submitted factorizations, the way
// PLASMA's dynamic scheduler owns the machine's cores for the lifetime of
// the process rather than spawning threads per factorization.
//
// Scheduling discipline (three levels):
//
//   - Within a job (one submitted DAG), ready tasks are ordered by
//     critical-path priority exactly as before: the weighted longest path
//     to a sink using the paper's Table 1 kernel weights, so factor
//     kernels on the critical path run ahead of trailing updates.
//   - Across jobs, admission is weighted-fair: every job accumulates
//     virtual time (the Table 1 weight of its executed tasks), and a
//     worker choosing between jobs serves the one with the least virtual
//     time. A huge factorization therefore cannot starve a fleet of small
//     ones — the small jobs' virtual clocks stay behind and they win the
//     next selection — while a lone job still gets every worker.
//   - For cache locality, a worker sticks with its current job for a
//     quantum of executed weight before reconsidering, so fair sharing
//     interleaves at the granularity of several tiles, not single tasks.
//
// Completion, dependency counters, and tracing are all per-job. A task
// error (kernel dispatch failure or panic) cancels the job: queued tasks
// of that job are dropped instead of executed, no new successors are
// released, and the submitter is unblocked as soon as the job's in-flight
// tasks drain — it never waits for the rest of the DAG. Cancelling the
// job's context (Options.Ctx) takes the same path with ctx.Err() as the
// job error, so an abandoned factorization stops consuming workers as
// soon as its in-flight tasks finish, while every other job keeps running
// untouched.
package sched

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tiledqr/internal/core"
)

// NumLocalSlots is the number of opaque scratch slots in a Local.
const NumLocalSlots = 8

// ErrClosed and ErrDraining are returned by Exec when the runtime no
// longer admits jobs; submitting never hangs or panics, whatever state the
// runtime is in.
var (
	ErrClosed   = fmt.Errorf("sched: submit on a closed runtime")
	ErrDraining = fmt.Errorf("sched: submit on a draining runtime")
)

// Local is the per-worker scratch box handed to Exec callbacks. Exactly one
// task uses a given Local at a time (pool workers own one each; any other
// goroutine borrows one with GetLocal), so callers may cache grow-only
// buffers in Slots without synchronization — the engine keeps one kernel
// workspace per arithmetic domain there, reused across every job the
// worker executes.
type Local struct {
	ID    int // pool worker index in [0, Workers); 0 on a borrowed Local
	Slots [NumLocalSlots]any
	next  [NumLocalSlots]atomic.Pointer[any] // a pool worker's: Reserve's scratch, taken before its next task
}

// Exec executes one task using the per-worker scratch loc. A non-nil error
// cancels the task's job promptly (outstanding tasks are dropped).
type Exec func(t int32, loc *Local) error

// weight returns the Table 1 weight of a kind, tolerating corrupted kinds
// (a malformed DAG must surface as a dispatch error, not a panic here).
func weight(k core.Kind) int64 {
	if k > core.KTTMQR {
		return 1
	}
	return int64(k.Weight())
}

// Plan is a DAG prepared for (repeated) execution: successor adjacency,
// critical-path priorities, initial dependency counts, and the sorted
// source tasks, computed once so steady-state re-execution allocates
// nothing here. The working dependency counters live in the Plan too, so a
// Plan must not be executed concurrently with itself (executing the same
// factorization's DAG concurrently would race on the tiles anyway).
type Plan struct {
	d       *core.DAG
	succOff []int32
	succs   []int32
	prio    []int64
	indeg0  []int32 // initial in-degrees
	indeg   []int32 // working counters, reset from indeg0 at submit
	sources []int32 // zero-indegree tasks, by descending priority
	serial  bool    // every task t > 0 depends on t − 1 (see Serial)
}

// NewPlan prepares a DAG for execution on a Runtime.
func NewPlan(d *core.DAG) *Plan {
	n := d.NumTasks()
	p := &Plan{d: d, prio: Priorities(d), indeg0: make([]int32, n), indeg: make([]int32, n)}
	p.succOff, p.succs = d.Succs()
	p.serial = true
	for t := 0; t < n; t++ {
		preds := d.Preds(t)
		p.indeg0[t] = int32(len(preds))
		if p.indeg0[t] == 0 {
			p.sources = append(p.sources, int32(t))
		}
		if t > 0 && !slices.Contains(preds, int32(t-1)) {
			p.serial = false
		}
	}
	sort.Slice(p.sources, func(a, b int) bool { return p.prio[p.sources[a]] > p.prio[p.sources[b]] })
	return p
}

// DAG returns the plan's task DAG.
func (p *Plan) DAG() *core.DAG { return p.d }

// Serial reports whether the plan's DAG is a chain: every task t > 0 lists
// t − 1 among its predecessors (vacuously so with fewer than two tasks).
// No pool can overlap the tasks of a chain, so Exec runs it on the
// submitting goroutine instead of paying a worker wake-up per task.
func (p *Plan) Serial() bool { return p.serial }

// job is one submitted DAG execution in flight on a runtime.
type job struct {
	plan *Plan
	exec Exec
	seq  uint64       // admission order, tie-break for fair selection
	vt   atomic.Int64 // executed weight: the fair-share virtual time

	remaining atomic.Int64 // tasks not yet retired (executed or dropped)
	executing atomic.Int32 // tasks currently inside exec
	canceled  atomic.Bool
	failOnce  sync.Once
	errMu     sync.Mutex
	errv      error
	doneOnce  sync.Once
	done      chan struct{}

	trace   bool
	statsOn bool
	busyNS  atomic.Int64 // summed task time, when statsOn or trace
	ran     atomic.Int64 // tasks actually executed (not dropped)
	start   time.Time
	spansMu sync.Mutex
	spans   []Span
}

func (j *job) complete() { j.doneOnce.Do(func() { close(j.done) }) }

// fail records the job's first error and cancels it. The job completes when
// its in-flight tasks drain; queued tasks are dropped un-executed.
func (j *job) fail(err error) {
	j.failOnce.Do(func() {
		j.errMu.Lock()
		j.errv = err
		j.errMu.Unlock()
		j.canceled.Store(true)
	})
}

func (j *job) loadErr() error {
	j.errMu.Lock()
	defer j.errMu.Unlock()
	return j.errv
}

// jobQ is the ready-task heap of one job within one worker's deque: a
// hand-rolled max-heap on the plan's critical-path priorities.
type jobQ struct {
	j     *job
	tasks []int32
}

// deque is one worker's pool of ready tasks, segregated by job so that
// cross-job fairness (pick a job) and within-job priority (pick its most
// critical task) stay independent. The job list is scanned linearly: the
// number of in-flight jobs with ready work on one worker is small.
type deque struct {
	mu    sync.Mutex
	jobs  []jobQ
	spare [][]int32 // recycled task-slice capacity from drained jobs
}

// push adds a ready task of job j.
func (q *deque) push(j *job, t int32) {
	q.mu.Lock()
	qi := -1
	for i := range q.jobs {
		if q.jobs[i].j == j {
			qi = i
			break
		}
	}
	if qi < 0 {
		var buf []int32
		if n := len(q.spare); n > 0 {
			buf = q.spare[n-1][:0]
			q.spare = q.spare[:n-1]
		}
		q.jobs = append(q.jobs, jobQ{j: j, tasks: buf})
		qi = len(q.jobs) - 1
	}
	jq := &q.jobs[qi]
	prio := j.plan.prio
	jq.tasks = append(jq.tasks, t)
	tasks := jq.tasks
	i := len(tasks) - 1
	for i > 0 {
		p := (i - 1) / 2
		if prio[tasks[p]] >= prio[tasks[i]] {
			break
		}
		tasks[p], tasks[i] = tasks[i], tasks[p]
		i = p
	}
	q.mu.Unlock()
}

// popHeap removes the root of q.jobs[qi]'s heap, retiring the jobQ when it
// drains. Callers hold q.mu.
func (q *deque) popHeap(qi int) int32 {
	jq := &q.jobs[qi]
	tasks, prio := jq.tasks, jq.j.plan.prio
	top := tasks[0]
	n := len(tasks) - 1
	tasks[0] = tasks[n]
	jq.tasks = tasks[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && prio[tasks[r]] > prio[tasks[c]] {
			c = r
		}
		if prio[tasks[i]] >= prio[tasks[c]] {
			break
		}
		tasks[i], tasks[c] = tasks[c], tasks[i]
		i = c
	}
	if n == 0 {
		q.retire(qi)
	}
	return top
}

// retire removes a drained jobQ, recycling its task-slice capacity.
// Callers hold q.mu.
func (q *deque) retire(qi int) {
	buf := q.jobs[qi].tasks[:0]
	last := len(q.jobs) - 1
	q.jobs[qi] = q.jobs[last]
	q.jobs[last] = jobQ{}
	q.jobs = q.jobs[:last]
	if len(q.spare) < 8 {
		q.spare = append(q.spare, buf)
	}
}

// popJob removes the highest-priority ready task of job j, if present —
// the stickiness fast path that keeps a worker on its current job.
func (q *deque) popJob(j *job) (int32, bool) {
	q.mu.Lock()
	for i := range q.jobs {
		if q.jobs[i].j == j {
			t := q.popHeap(i)
			q.mu.Unlock()
			return t, true
		}
	}
	q.mu.Unlock()
	return 0, false
}

// fairest returns the index of the job with the least virtual time
// (admission order breaks ties), or -1. Callers hold q.mu.
func (q *deque) fairest() int {
	best := -1
	var bestVT int64
	var bestSeq uint64
	for i := range q.jobs {
		vt := q.jobs[i].j.vt.Load()
		if best < 0 || vt < bestVT || (vt == bestVT && q.jobs[i].j.seq < bestSeq) {
			best, bestVT, bestSeq = i, vt, q.jobs[i].j.seq
		}
	}
	return best
}

// popFair removes the most critical task of the fairest job.
func (q *deque) popFair() (*job, int32, bool) {
	q.mu.Lock()
	qi := q.fairest()
	if qi < 0 {
		q.mu.Unlock()
		return nil, 0, false
	}
	j := q.jobs[qi].j
	t := q.popHeap(qi)
	q.mu.Unlock()
	return j, t, true
}

// stealFair removes a trailing heap leaf (locally low priority) of the
// fairest job — O(1) and guaranteed not to be the victim's most critical
// task of that job.
func (q *deque) stealFair() (*job, int32, bool) {
	q.mu.Lock()
	qi := q.fairest()
	if qi < 0 {
		q.mu.Unlock()
		return nil, 0, false
	}
	jq := &q.jobs[qi]
	j := jq.j
	n := len(jq.tasks) - 1
	t := jq.tasks[n]
	jq.tasks = jq.tasks[:n]
	if n == 0 {
		q.retire(qi)
	}
	q.mu.Unlock()
	return j, t, true
}

// fairQuantum is how much executed weight (Table 1 units; one unit is
// nb³/3 flops) a worker spends on one job before reconsidering fairness.
// Coarse enough to amortize cache refills across several tile kernels,
// fine enough that a fleet of small jobs interleaves with a huge one.
const fairQuantum = 64

// Runtime is a persistent pool of worker goroutines executing the task
// DAGs of concurrently submitted jobs. Share one per width (see Shared) or
// create one per isolation domain; Close releases the workers.
type Runtime struct {
	workers  int
	deques   []deque
	locals   []Local
	notify   chan struct{} // wake tokens for parked workers, cap == workers
	parked   atomic.Int32
	shutdown chan struct{}

	mu        sync.Mutex
	closed    bool
	draining  bool
	inflight  int             // jobs submitted and not yet completed
	idlers    []chan struct{} // waiters (Close/Drain) signaled when inflight hits 0
	active    []*job          // jobs in flight, for the admission vt floor
	wg        sync.WaitGroup  // worker goroutines
	seq       atomic.Uint64
	shared    bool // a Shared runtime: Close and Drain never stop it
	reserveMu sync.Mutex
	reserved  [NumLocalSlots]atomic.Int64 // scratch every worker holds, per slot (see Reserve)
}

// DefaultWorkers returns the worker count a runtime sized with workers ≤ 0
// gets: the TILEDQR_WORKERS environment variable when it parses as a
// positive integer, else GOMAXPROCS. The env override lets container
// deployments cap the library's parallelism without a code change (a
// cgroup CPU quota does not lower GOMAXPROCS on its own); malformed or
// non-positive values are ignored rather than honored surprisingly.
func DefaultWorkers() int {
	if s := os.Getenv("TILEDQR_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// NewRuntime starts a runtime with the given number of workers (≤ 0 means
// DefaultWorkers: TILEDQR_WORKERS if set, else GOMAXPROCS). The workers are
// goroutines that park when idle; Close stops them.
func NewRuntime(workers int) *Runtime {
	if workers < 1 {
		workers = DefaultWorkers()
	}
	rt := &Runtime{
		workers:  workers,
		deques:   make([]deque, workers),
		locals:   make([]Local, workers),
		notify:   make(chan struct{}, workers),
		shutdown: make(chan struct{}),
	}
	for i := range rt.locals {
		rt.locals[i].ID = i
	}
	rt.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go rt.worker(i)
	}
	return rt
}

var (
	sharedMu sync.Mutex
	shared   = map[int]*Runtime{}
)

// Shared returns the process-wide runtime of the given width (≤ 0 means
// DefaultWorkers, so Shared(0) is the default runtime), started on first
// use under a mutex, so concurrent first calls start one runtime. Close is
// a no-op on it and Drain never refuses it work: it lives for the process.
func Shared(workers int) *Runtime {
	if workers < 1 {
		workers = DefaultWorkers()
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	rt := shared[workers]
	if rt == nil {
		rt = NewRuntime(workers)
		rt.shared = true
		shared[workers] = rt
	}
	return rt
}

// Workers returns the size of the worker pool.
func (rt *Runtime) Workers() int { return rt.workers }

// Stats is a point-in-time snapshot of a runtime's load, the observability
// feed for a serving front end's /statsz endpoint and for admission
// decisions (queue-depth backpressure).
type Stats struct {
	Workers     int  // size of the worker pool
	QueuedTasks int  // ready tasks waiting in worker deques, across all jobs
	InFlight    int  // jobs submitted and not yet completed
	Draining    bool // Drain was called: new submissions are rejected
	Closed      bool // Close was called
}

// Stats snapshots the runtime's current load. The queued-task count is a
// consistent-enough sum taken deque by deque (each under its own lock);
// tasks in the middle of a steal may be counted zero or one times, which is
// fine for load reporting and backpressure thresholds.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	st := Stats{
		Workers:  rt.workers,
		InFlight: rt.inflight,
		Draining: rt.draining,
		Closed:   rt.closed,
	}
	rt.mu.Unlock()
	for i := range rt.deques {
		q := &rt.deques[i]
		q.mu.Lock()
		for j := range q.jobs {
			st.QueuedTasks += len(q.jobs[j].tasks)
		}
		q.mu.Unlock()
	}
	return st
}

// Close waits for in-flight jobs to complete, then stops every worker and
// waits for them to exit. Further Exec calls return an error. Close is
// idempotent: concurrent and repeated calls all block until the workers
// are gone and then return. Closing a Shared runtime is a no-op.
func (rt *Runtime) Close() {
	if rt.shared {
		return
	}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		rt.wg.Wait()
		return
	}
	rt.closed = true
	rt.mu.Unlock()
	rt.awaitIdle(nil)
	close(rt.shutdown)
	rt.wg.Wait()
}

// Drain gracefully winds the runtime down: admission stops (further Exec
// calls return an error) and Drain blocks until every in-flight job has
// completed or ctx expires, returning ctx.Err() in the latter case — the
// deadline-bounded shutdown a serving front end needs. Jobs still running
// at the deadline keep running (cancel them through their own contexts);
// a subsequent Close reaps the workers. On a Shared runtime Drain only
// waits for the runtime to go idle — a process-wide pool never refuses
// admission.
func (rt *Runtime) Drain(ctx context.Context) error {
	if !rt.shared {
		rt.mu.Lock()
		rt.draining = true
		rt.mu.Unlock()
	}
	return rt.awaitIdle(ctx)
}

// awaitIdle blocks until no job is in flight, or until ctx (when non-nil)
// is done. Waiters register a channel closed by the job that takes
// inflight to zero, so an expired wait leaves nothing behind but an
// already-registered channel — no polling, no helper goroutine to leak.
func (rt *Runtime) awaitIdle(ctx context.Context) error {
	rt.mu.Lock()
	if rt.inflight == 0 {
		rt.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	rt.idlers = append(rt.idlers, ch)
	rt.mu.Unlock()
	if ctx == nil {
		<-ch
		return nil
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jobDone retires one in-flight job, waking Close/Drain waiters when the
// runtime goes idle.
func (rt *Runtime) jobDone() {
	rt.mu.Lock()
	rt.inflight--
	if rt.inflight == 0 {
		for _, ch := range rt.idlers {
			close(ch)
		}
		rt.idlers = nil
	}
	rt.mu.Unlock()
}

// wakeOne mints a wake token if any worker is parked. The channel holds at
// most one token per worker, so a dropped send means every parked worker
// already has a token to consume — and every consumed token is followed by
// a full rescan, so no pushed task is ever lost.
func (rt *Runtime) wakeOne() {
	if rt.parked.Load() > 0 {
		select {
		case rt.notify <- struct{}{}:
		default:
		}
	}
}

// Exec runs every task of the plan's DAG on the pool, honoring
// dependencies, and blocks until the job completes, is canceled by a task
// error, or is canceled by Options.Ctx. Safe for concurrent use from any
// number of goroutines; each call is an independent job under the fair
// cross-job discipline. The returned Trace has Spans only when opt.Trace
// is set. A Serial plan runs on the calling goroutine through RunInline,
// still admitted and counted in flight like any other job, so Close and
// Drain wait for it.
//
// On cancellation (task error, panic, or context) the job's in-flight
// tasks run to completion, its queued tasks are dropped un-executed, and
// Exec returns as soon as the in-flight tasks drain — dropped tasks never
// touch the Plan's dependency counters, so the Plan may be re-submitted
// immediately even while its dropped tasks are still being swept out of
// the worker deques.
func (rt *Runtime) Exec(p *Plan, opt Options, exec Exec) (*Trace, error) {
	rt.mu.Lock()
	switch {
	case rt.closed:
		rt.mu.Unlock()
		return nil, ErrClosed
	case rt.draining:
		rt.mu.Unlock()
		return nil, ErrDraining
	}
	rt.inflight++
	rt.mu.Unlock()
	defer rt.jobDone()

	var cancelCh <-chan struct{}
	if opt.Ctx != nil {
		// A context that is already dead never submits: the caller gets
		// ctx.Err() without a single task executing.
		if err := opt.Ctx.Err(); err != nil {
			return nil, err
		}
		cancelCh = opt.Ctx.Done()
	}
	n := p.d.NumTasks()
	if n == 0 {
		return &Trace{Workers: rt.workers}, nil
	}
	if p.serial {
		tr, err := RunInline(p.d, opt, exec)
		tr.Workers = rt.workers
		return tr, err
	}
	j := &job{
		plan:    p,
		exec:    exec,
		seq:     rt.seq.Add(1),
		trace:   opt.Trace,
		statsOn: opt.Stats != nil,
		start:   time.Now(),
		done:    make(chan struct{}),
	}
	j.remaining.Store(int64(n))
	if opt.Trace {
		j.spans = make([]Span, 0, n)
	}
	// Admit at the pool's minimum active virtual time (the CFS floor): a
	// new job gets ahead of everything that has already consumed more
	// work, but a sustained stream of fresh small jobs cannot pin a
	// long-running job at the back of the queue forever.
	rt.mu.Lock()
	var floor int64
	for i, a := range rt.active {
		if vt := a.vt.Load(); i == 0 || vt < floor {
			floor = vt
		}
	}
	j.vt.Store(floor)
	rt.active = append(rt.active, j)
	rt.mu.Unlock()
	defer func() {
		rt.mu.Lock()
		for i, a := range rt.active {
			if a == j {
				last := len(rt.active) - 1
				rt.active[i] = rt.active[last]
				rt.active[last] = nil
				rt.active = rt.active[:last]
				break
			}
		}
		rt.mu.Unlock()
	}()
	copy(p.indeg, p.indeg0)
	// Seed the sources (already sorted by descending priority) round-robin
	// across the deques, rotating the starting worker per job so
	// concurrent small jobs spread over the pool.
	base := int(j.seq % uint64(rt.workers))
	for k, t := range p.sources {
		rt.deques[(base+k)%rt.workers].push(j, t)
	}
	for k := 0; k < rt.workers && k < len(p.sources); k++ {
		rt.wakeOne()
	}
	if cancelCh == nil {
		<-j.done
	} else {
		select {
		case <-j.done:
		case <-cancelCh:
			j.fail(opt.Ctx.Err())
			// With no task inside exec the workers may take a while to
			// sweep the dropped tasks; complete the job now so the
			// submitter unblocks immediately. Any worker that raced past
			// the cancel flag completes it again harmlessly (doneOnce),
			// and has already made the job visible in `executing`.
			if j.executing.Load() == 0 {
				j.complete()
			}
			<-j.done
		}
	}
	tr := &Trace{Workers: rt.workers, Elapsed: time.Since(j.start)}
	if opt.Trace {
		j.spansMu.Lock()
		tr.Spans = j.spans
		j.spansMu.Unlock()
	}
	if opt.Stats != nil {
		*opt.Stats = JobStats{
			Tasks: j.ran.Load(),
			Busy:  time.Duration(j.busyNS.Load()),
			Wall:  tr.Elapsed,
		}
	}
	return tr, j.loadErr()
}

// Reserve gives every worker, for Slots[slot], the scratch mk(n) makes,
// unless an earlier Reserve of the slot made at least n. Each worker takes
// it before its next task. Called before every job, it makes the first job
// of a size allocate the scratch of all workers at once, so no later job
// allocates any for a worker that got none of the first one's tasks.
// Scratch that tasks grow themselves must stay within what was reserved.
func (rt *Runtime) Reserve(slot, n int, mk func(n int) any) {
	if rt.reserved[slot].Load() >= int64(n) {
		return
	}
	rt.reserveMu.Lock()
	defer rt.reserveMu.Unlock()
	if rt.reserved[slot].Load() >= int64(n) {
		return
	}
	for i := range rt.locals {
		v := mk(n)
		rt.locals[i].next[slot].Store(&v)
	}
	rt.reserved[slot].Store(int64(n))
}

// scan tries the worker's own deque (fair order), then steals a leaf from
// every victim in turn.
func (rt *Runtime) scan(id int) (*job, int32, bool) {
	j, t, ok := rt.deques[id].popFair()
	for v := 1; !ok && v < rt.workers; v++ {
		j, t, ok = rt.deques[(id+v)%rt.workers].stealFair()
	}
	return j, t, ok
}

func (rt *Runtime) worker(id int) {
	defer rt.wg.Done()
	loc := &rt.locals[id]
	self := &rt.deques[id]
	var cur *job
	var budget int64
	for {
		var j *job
		var t int32
		ok := false
		// Stickiness: stay on the current job while its quantum lasts and
		// it has ready tasks here (the tiles it just wrote are hot).
		if cur != nil && budget > 0 {
			if t, ok = self.popJob(cur); ok {
				j = cur
			}
		}
		if !ok {
			if j, t, ok = rt.scan(id); ok {
				cur, budget = j, fairQuantum
			}
		}
		if !ok {
			// Park protocol: declare parked, rescan (lossless handshake
			// with push — the rescan locks the same deque mutexes), then
			// wait for a wake token.
			rt.parked.Add(1)
			if j, t, ok = rt.scan(id); ok {
				rt.parked.Add(-1)
				cur, budget = j, fairQuantum
			} else {
				cur = nil // don't pin a completed job while parked
				select {
				case <-rt.notify:
					rt.parked.Add(-1)
					continue
				case <-rt.shutdown:
					rt.parked.Add(-1)
					return
				}
			}
		}
		budget -= weight(j.plan.d.Tasks[t].Kind)
		for s := range loc.next {
			if loc.next[s].Load() != nil {
				loc.Slots[s] = *loc.next[s].Swap(nil)
			}
		}
		rt.runOne(j, t, loc, self)
	}
}

// runOne executes (or, for a canceled job, drops) one task and does the
// job bookkeeping: successor release, fairness clock, completion.
func (rt *Runtime) runOne(j *job, t int32, loc *Local, self *deque) {
	// The executing counter is raised before the cancel check and held
	// until after the successor release below, so that a concurrent
	// fail() cannot observe executing == 0 (and unblock the submitter)
	// while this worker is about to run the task — or is still
	// decrementing the plan's shared dependency counters. Once Exec
	// returns, no task of the job is inside exec and the Plan is quiescent
	// (safe to re-submit).
	j.executing.Add(1)
	if j.canceled.Load() {
		if j.executing.Add(-1) == 0 && j.canceled.Load() {
			j.complete()
		}
		j.remaining.Add(-1)
		return
	}
	if err := j.runTask(t, loc); err != nil {
		j.fail(err)
	}
	if !j.canceled.Load() {
		p := j.plan
		for _, s := range p.succs[p.succOff[t]:p.succOff[t+1]] {
			if atomic.AddInt32(&p.indeg[s], -1) == 0 {
				self.push(j, s)
				rt.wakeOne()
			}
		}
		j.vt.Add(weight(p.d.Tasks[t].Kind))
	}
	if j.executing.Add(-1) == 0 && j.canceled.Load() {
		j.complete()
	}
	if j.remaining.Add(-1) == 0 {
		j.complete()
	}
}

// runTask executes one task, converting panics into errors and recording a
// span when tracing.
func (j *job) runTask(t int32, loc *Local) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: task %v panicked: %v", j.plan.d.Tasks[t], r)
		}
	}()
	var t0 time.Duration
	if j.trace || j.statsOn {
		t0 = time.Since(j.start)
	}
	err = j.exec(t, loc)
	if j.trace || j.statsOn {
		t1 := time.Since(j.start)
		j.busyNS.Add(int64(t1 - t0))
		j.ran.Add(1)
		if j.trace {
			j.spansMu.Lock()
			j.spans = append(j.spans, Span{Task: t, Worker: loc.ID, Start: t0, End: t1})
			j.spansMu.Unlock()
		}
	}
	return err
}

// RunInline executes every task of the DAG sequentially in topological
// (ID) order on the calling goroutine: the deterministic Workers == 1
// path, and Exec's path for Serial plans. Stops at the first task error or
// panic, and — when opt.Ctx is non-nil — at the first task boundary after
// it is done, returning its error. A nil ctx costs nothing per task.
// opt.Stats counts the tasks that ran, the failing one included; busy time
// equals wall time.
func RunInline(d *core.DAG, opt Options, exec Exec) (*Trace, error) {
	loc := GetLocal()
	defer PutLocal(loc)
	start := time.Now()
	tr := &Trace{Workers: 1}
	if opt.Trace {
		tr.Spans = make([]Span, 0, d.NumTasks())
	}
	ran := 0
	var err error
	for ; ran < d.NumTasks(); ran++ {
		if opt.Ctx != nil {
			if err = opt.Ctx.Err(); err != nil {
				break
			}
		}
		var t0 time.Duration
		if opt.Trace {
			t0 = time.Since(start)
		}
		if err = runInlineTask(d, int32(ran), loc, exec); err != nil {
			ran++ // the failing task ran too
			break
		}
		if opt.Trace {
			tr.Spans = append(tr.Spans, Span{Task: int32(ran), Worker: 0, Start: t0, End: time.Since(start)})
		}
	}
	tr.Elapsed = time.Since(start)
	if opt.Stats != nil {
		*opt.Stats = JobStats{Tasks: int64(ran), Busy: tr.Elapsed, Wall: tr.Elapsed}
	}
	return tr, err
}

// runInlineTask runs one task inline, converting panics into errors.
func runInlineTask(d *core.DAG, t int32, loc *Local, exec Exec) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sched: task %v panicked: %v", d.Tasks[t], r)
		}
	}()
	return exec(t, loc)
}
