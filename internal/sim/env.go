// iter.Pull (Go 1.23) runs the proc coroutines. The constraint raises this
// file's language version above go.mod's go 1.22 line, which stays there so
// that the perfbench module, itself at go 1.22, keeps building against it.

//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"sort"
	"strings"
)

// wakeToken is a single-use wakeup permit for a parked Proc. A Proc about to
// block creates one token and registers it with every path that may resume it
// (a timer, a queue push, an event fire). The first path to reach the kernel
// wins; the rest find the token spent and are ignored. This is what makes
// timeouts composable with every blocking primitive.
//
// Tokens are pooled: refs counts live registrations (heap entries plus
// waiter-list entries). Every registration site increments refs and every
// site that drops a registration calls Env.dropRef; a spent token whose last
// registration is dropped returns to the free list. A token may therefore
// never be recycled while any waiter list can still observe it.
type wakeToken struct {
	p     *Proc
	spent bool
	refs  int32
}

type event struct {
	t   Time
	seq uint64
	tok *wakeToken
}

func (a event) before(b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary array-indexed min-heap ordered by (t, seq). It stores
// events by value (no interface boxing, so Push/Pop never allocate beyond
// amortized slice growth) and is flatter than a binary heap, which matters
// because pops dominate: each pop sifts down through at most log4(n) levels.
type eventHeap struct {
	a []event
}

func (h *eventHeap) len() int { return len(h.a) }

func (h *eventHeap) push(ev event) {
	h.a = append(h.a, ev)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !h.a[i].before(h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	a := h.a
	min := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a[last] = event{} // release the token pointer
	a = a[:last]
	h.a = a
	i := 0
	for {
		first := i<<2 + 1
		if first >= last {
			break
		}
		m := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if a[c].before(a[m]) {
				m = c
			}
		}
		if !a[m].before(a[i]) {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return min
}

type procState int

const (
	stateNew procState = iota
	stateRunning
	stateBlocked
	stateDone
	// stateFree marks a proc whose body has returned and whose coroutine is
	// suspended in the reuse pool awaiting the next Spawn.
	stateFree
)

// killSignal is the panic sentinel park raises when Shutdown stops a parked
// proc; run recovers it, so it never escapes the package.
type killSignal struct{}

// Proc is a simulated thread of control. All blocking operations on the
// simulation (Wait, queue pops, CPU execution, transfers) take the Proc as
// the identity of the caller; a Proc must only be used from its own body.
//
// Procs (and their coroutines) are pooled: when a body returns, the proc
// parks in a free list and the next Spawn reuses it. A *Proc must therefore
// not be retained past the return of its body.
type Proc struct {
	env  *Env
	name string
	fn   func(*Proc)
	// next resumes the proc's coroutine until it parks or its body returns;
	// stop unwinds it for good. yield, handed to the coroutine, suspends it
	// back to the kernel and reports false once the proc has been stopped.
	next   func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	state  procState
	thread *Thread
	daemon bool
	// idx is the proc's position in env.procs (swap-removed on completion).
	idx int
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Thread returns the OS-thread identity attached to this process (may be
// nil for pure coordination processes).
func (p *Proc) Thread() *Thread { return p.thread }

// SetThread attaches an OS-thread identity used by CPU cost accounting when
// callees charge work to "the calling thread".
func (p *Proc) SetThread(th *Thread) { p.thread = th }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Env is a discrete-event simulation environment: a virtual clock, an event
// queue and the set of live processes. Create one with NewEnv, spawn
// processes, then call Run or RunUntil from the host goroutine. Env is not
// safe for concurrent use from multiple host goroutines.
//
// Scheduling is a trampoline over coroutines: every Proc body runs as an
// iter.Pull coroutine, and runWindow — on whichever goroutine calls it —
// pops the next event and resumes its owner with a direct coroutine switch
// (no scheduler, no channel). A parking proc keeps control when its own
// wakeup is the heap's next live event within the run limit (the common
// case for plain Waits); otherwise it yields back to runWindow, which
// resumes the next owner. Exactly one coroutine runs at a time, so the
// event order — and with it every simulated result — is that of the
// classic kernel-centric loop.
type Env struct {
	now    Time
	seq    uint64
	heap   eventHeap
	limit  Time
	rng    *rand.Rand
	live   int
	procs  []*Proc
	events uint64

	procFree []*Proc
	tokFree  []*wakeToken
}

// NewEnv returns an environment whose random stream is seeded with seed.
func NewEnv(seed int64) *Env {
	return &Env{
		rng:   rand.New(rand.NewSource(seed)),
		limit: MaxTime,
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random stream. It must only
// be used from simulation processes (or before Run), never concurrently.
func (e *Env) Rand() *rand.Rand { return e.rng }

// getToken takes a token from the pool (or allocates one) for p.
func (e *Env) getToken(p *Proc) *wakeToken {
	if n := len(e.tokFree); n > 0 {
		tok := e.tokFree[n-1]
		e.tokFree = e.tokFree[:n-1]
		tok.p, tok.spent, tok.refs = p, false, 0
		return tok
	}
	return &wakeToken{p: p}
}

// dropRef releases one registration of tok (heap entry or waiter-list
// entry). A spent token with no registrations left can never be observed
// again and returns to the pool.
func (e *Env) dropRef(tok *wakeToken) {
	tok.refs--
	if tok.refs == 0 && tok.spent {
		tok.p = nil
		e.tokFree = append(e.tokFree, tok)
	}
}

// schedule enqueues tok to fire at time at (>= now).
func (e *Env) schedule(tok *wakeToken, at Time) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	tok.refs++
	e.heap.push(event{t: at, seq: e.seq, tok: tok})
}

// top pops spent tokens off the heap and reports whether a live event
// remains; if so it is e.heap.a[0]. Must only be called by the goroutine
// currently holding control (or between runs).
func (e *Env) top() bool {
	for e.heap.len() > 0 {
		tok := e.heap.a[0].tok
		if !tok.spent {
			return true
		}
		e.heap.pop()
		e.dropRef(tok)
	}
	return false
}

// peek returns the owner of the next live event, or nil when the heap is
// exhausted or that event lies beyond the run limit (it stays queued).
func (e *Env) peek() *Proc {
	if !e.top() || e.heap.a[0].t > e.limit {
		return nil
	}
	return e.heap.a[0].tok.p
}

// fire pops the live event peek found, advancing the clock to it and
// spending its token.
func (e *Env) fire() {
	ev := e.heap.pop()
	e.now = ev.t
	ev.tok.spent = true
	e.events++
	e.dropRef(ev.tok)
}

// SpawnDaemon creates a service-loop process that is expected to block
// forever once the system goes idle (messenger workers, storage threads,
// pollers). Daemons are excluded from deadlock detection: a run whose only
// remaining blocked processes are daemons terminates cleanly.
func (e *Env) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	p := e.Spawn(name, fn)
	p.daemon = true
	return p
}

// Spawn creates a new process running fn and schedules it to start at the
// current virtual time. It may be called before Run or from inside a running
// process. Finished procs (coroutine included) are reused.
func (e *Env) Spawn(name string, fn func(*Proc)) *Proc {
	var p *Proc
	if n := len(e.procFree); n > 0 {
		p = e.procFree[n-1]
		e.procFree = e.procFree[:n-1]
		p.name, p.fn = name, fn
		p.state = stateNew
		p.thread = nil
		p.daemon = false
	} else {
		p = &Proc{env: e, name: name, fn: fn}
		p.next, p.stop = iter.Pull(p.loop)
	}
	p.idx = len(e.procs)
	e.procs = append(e.procs, p)
	e.live++
	e.schedule(e.getToken(p), e.now)
	return p
}

// loop is the body of a proc coroutine: run a spawned function, recycle the
// proc, suspend until the next reuse. One coroutine serves many Spawns; it
// ends only when Shutdown stops it.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	for {
		p.state = stateRunning
		if p.run() || !yield(struct{}{}) {
			return
		}
	}
}

// run executes the proc body once and reports whether the proc was killed.
// On normal completion it recycles the proc. A panic other than the kill
// sentinel propagates out of the coroutine to the goroutine that resumed it
// (the caller of Run), carrying its original value.
func (p *Proc) run() (killed bool) {
	e := p.env
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSignal); !ok {
					panic(r)
				}
				killed = true
			}
		}()
		p.fn(p)
	}()
	e.live--
	p.state = stateDone
	if killed {
		return true
	}
	// Swap-remove from the live list and recycle.
	lastIdx := len(e.procs) - 1
	lastProc := e.procs[lastIdx]
	e.procs[p.idx] = lastProc
	lastProc.idx = p.idx
	e.procs[lastIdx] = nil
	e.procs = e.procs[:lastIdx]
	p.fn = nil
	p.thread = nil
	p.state = stateFree
	e.procFree = append(e.procFree, p)
	return false
}

// park suspends the proc until one of its registered wake tokens fires.
// Fast path: when the heap's next live event within the run limit is the
// proc's own (typical for plain Waits), park fires it and returns without a
// coroutine switch. Otherwise it yields to the trampoline in runWindow,
// which resumes it when its token fires — or stops it during Shutdown, in
// which case park unwinds the body with the kill sentinel.
func (p *Proc) park() {
	p.state = stateBlocked
	if e := p.env; e.peek() == p {
		e.fire()
	} else if !p.yield(struct{}{}) {
		panic(killSignal{})
	}
	p.state = stateRunning
}

// newToken creates a fresh single-use wake token for this proc.
func (p *Proc) newToken() *wakeToken { return p.env.getToken(p) }

// Wait blocks the process for duration d of virtual time.
func (p *Proc) Wait(d Duration) {
	if d < 0 {
		d = 0
	}
	tok := p.newToken()
	p.env.schedule(tok, p.env.now.Add(d))
	p.park()
}

// WaitUntil blocks the process until the virtual instant t (no-op if t has
// passed).
func (p *Proc) WaitUntil(t Time) {
	if t <= p.env.now {
		return
	}
	p.Wait(t.Sub(p.env.now))
}

// Yield reschedules the process at the current instant, letting every other
// process that is ready at the same time run first.
func (p *Proc) Yield() { p.Wait(0) }

// PartitionState is the diagnostic snapshot of one partition at the moment
// a deadlock was detected. Serial runs report a single partition; the
// partitioned kernel (Group) reports one entry per member, so a stall in a
// parallel run shows which partition is parked, where its clock stopped and
// whether cross-partition messages were delivered but never consumed.
type PartitionState struct {
	// Name is the partition name ("env" for a serial run).
	Name string
	// Now is the partition's local clock when the run stopped.
	Now Time
	// Parked lists the non-daemon procs blocked forever, sorted.
	Parked []string
	// Daemons counts parked daemon procs (excluded from detection).
	Daemons int
	// Pending counts cross-partition messages sitting in this partition's
	// link inboxes, delivered but never received by any proc.
	Pending int
}

// DeadlockError reports that live processes remain but no event can ever
// wake them. Partitions carries the per-partition breakdown; Blocked stays
// the flat list of stuck proc names (prefixed "partition/" in parallel
// runs) for callers that only want the summary.
type DeadlockError struct {
	Time       Time
	Blocked    []string
	Partitions []PartitionState
}

func (e DeadlockError) Error() string {
	if len(e.Partitions) <= 1 {
		return fmt.Sprintf("sim: deadlock at %v: %d proc(s) blocked forever: %s",
			e.Time, len(e.Blocked), strings.Join(e.Blocked, ", "))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at %v: %d proc(s) blocked forever across %d partitions",
		e.Time, len(e.Blocked), len(e.Partitions))
	for _, ps := range e.Partitions {
		fmt.Fprintf(&b, "\n  partition %s @ %v: parked=[%s] daemons=%d pending-msgs=%d",
			ps.Name, ps.Now, strings.Join(ps.Parked, ", "), ps.Daemons, ps.Pending)
	}
	return b.String()
}

// Run executes events until no process remains. It returns a DeadlockError
// if live processes are blocked with an empty event queue.
func (e *Env) Run() error { return e.RunUntil(MaxTime) }

// RunUntil executes events with timestamps <= limit. On return the clock is
// at limit (or at the completion instant if everything finished earlier).
// Processes still blocked at the limit are left parked; use Shutdown to
// reclaim them. A DeadlockError is returned if, before the limit, live
// processes remain with an empty event queue.
func (e *Env) RunUntil(limit Time) error {
	if !e.runWindow(limit) {
		return nil
	}
	parked, daemons := e.blockedState()
	if len(parked) > 0 {
		return DeadlockError{Time: e.now, Blocked: parked, Partitions: []PartitionState{
			{Name: "env", Now: e.now, Parked: parked, Daemons: daemons},
		}}
	}
	return nil
}

// runWindow executes events with timestamps <= limit and reports whether
// the heap drained completely (false means live events remain beyond the
// limit and the clock was advanced to it). Unlike RunUntil it performs no
// deadlock detection: the partitioned kernel calls it for each safe window,
// where an empty heap with parked procs just means the partition is waiting
// for cross-partition messages.
func (e *Env) runWindow(limit Time) (drained bool) {
	e.limit = limit
	for p := e.peek(); p != nil; p = e.peek() {
		e.fire()
		p.next()
	}
	if e.heap.len() > 0 {
		// Next live event is beyond the limit; leave it queued.
		e.now = limit
		return false
	}
	return true
}

// blockedState returns the sorted names of non-daemon procs parked or never
// started, plus the number of parked daemons.
func (e *Env) blockedState() (parked []string, daemons int) {
	for _, p := range e.procs {
		if p.state != stateBlocked && p.state != stateNew {
			continue
		}
		if p.daemon {
			daemons++
			continue
		}
		parked = append(parked, p.name)
	}
	sort.Strings(parked)
	return parked, daemons
}

// NextEventTime returns the timestamp of the earliest live event, popping
// any spent tokens it skims past. ok is false when no live event remains.
// It must only be called while the environment is not running (between
// windows or before Run).
func (e *Env) NextEventTime() (t Time, ok bool) {
	if !e.top() {
		return 0, false
	}
	return e.heap.a[0].t, true
}

// advanceTo moves the clock forward to t without executing anything. The
// partitioned kernel uses it to align member clocks at the run limit.
func (e *Env) advanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// Shutdown force-terminates every process that is still parked or never
// started — including the pooled coroutines of finished procs — releasing
// their goroutines. The environment must not be used afterwards.
func (e *Env) Shutdown() {
	// Index loop: a killed body's deferred code may still Spawn.
	for i := 0; i < len(e.procs); i++ {
		switch p := e.procs[i]; p.state {
		case stateNew:
			e.live--
			p.state = stateDone
			p.stop()
		case stateBlocked:
			p.stop()
		}
	}
	for _, p := range e.procFree {
		p.stop()
	}
	e.procFree = nil
}

// LiveProcs returns the number of processes that have not finished.
func (e *Env) LiveProcs() int { return e.live }

// Events returns the total number of events fired since the environment was
// created (spent tokens skipped by the kernel are not counted). It is the
// numerator of the simulator's events/sec throughput metric.
func (e *Env) Events() uint64 { return e.events }
