package sim

import (
	"fmt"
	"sort"
	"sync"
)

// This file implements the conservative parallel event kernel: a Group of
// independent Env partitions, each with its own event heap, clock, random
// stream and proc pools, synchronized by lookahead-bounded safe windows.
//
// The synchronization protocol is a barrier-stepped variant of the classic
// Chandy-Misra-Bryant conservative algorithm (null messages replaced by a
// horizon computation at each barrier):
//
//  1. At a barrier, read every partition's next local event time E_i.
//  2. Compute each partition's safe horizon H_i = min over j != i of
//     (E_j + dist[j][i]), where dist is the minimum summed link latency of
//     any path j -> i (Floyd-Warshall over the declared XLinks). No event
//     another partition will ever execute can influence partition i before
//     H_i, because influence only travels over links and every link has
//     strictly positive latency (its lookahead).
//  3. Run, in parallel on worker goroutines, every partition whose next
//     event lies before min(H_i, limit+1). Each partition executes its
//     window serially with the unchanged serial kernel, so all existing
//     model code runs unmodified and data-race-free.
//  4. At the next barrier, deliver the cross-partition messages staged by
//     Send during the window. Lookahead guarantees every arrival timestamp
//     is still in each receiver's future.
//
// Determinism: a partition's execution depends only on its own event
// sequence and the messages injected at barriers. Horizons are pure
// functions of partition state read at barriers, and injected batches are
// sorted by the total order (arrival time, link id, per-link sequence) —
// none of it depends on how many workers run the windows or how the Go
// scheduler interleaves them. Results are therefore bit-identical for any
// worker count and any GOMAXPROCS, and with one partition and no links the
// group degenerates to the serial kernel exactly.
type Group struct {
	names []string
	envs  []*Env
	links []*XLink
	// dist[s][d] is the minimum summed link latency of any s->d path, or
	// <0 when d is unreachable from s. Recomputed lazily after topology
	// changes.
	dist    [][]Duration
	stats   GroupStats
	started bool
}

// GroupStats counts the synchronization work a Run performed.
type GroupStats struct {
	// Rounds is the number of barrier rounds executed.
	Rounds uint64
	// Windows is the number of partition windows dispatched (at most
	// Rounds x partitions; fewer when partitions sit idle).
	Windows uint64
	// Delivered is the number of cross-partition messages delivered.
	Delivered uint64
}

// PartitionID names one member environment of a Group.
type PartitionID int

// NewGroup returns an empty partition group.
func NewGroup() *Group { return &Group{} }

// Add registers env as a partition and returns its id. All partitions must
// be added (and their links connected) before Run.
func (g *Group) Add(name string, env *Env) PartitionID {
	for _, e := range g.envs {
		if e == env {
			panic(fmt.Sprintf("sim: partition %q: env already added to this group", name))
		}
	}
	g.envs = append(g.envs, env)
	g.names = append(g.names, name)
	g.dist = nil
	return PartitionID(len(g.envs) - 1)
}

// Partitions returns the number of member environments.
func (g *Group) Partitions() int { return len(g.envs) }

// Env returns the member environment with the given id.
func (g *Group) Env(id PartitionID) *Env { return g.envs[id] }

// Name returns the name the partition was added with.
func (g *Group) Name(id PartitionID) string { return g.names[id] }

// Events returns the total events fired across all partitions.
func (g *Group) Events() uint64 {
	var n uint64
	for _, e := range g.envs {
		n += e.Events()
	}
	return n
}

// Stats returns the synchronization counters of the last / current Run.
func (g *Group) Stats() GroupStats { return g.stats }

// XMsg is one cross-partition message: a payload stamped with its arrival
// instant at the destination partition plus the (link, sequence) pair that
// breaks ties deterministically when two messages arrive at the same
// instant.
type XMsg struct {
	// At is the arrival instant at the destination partition.
	At Time
	// Link is the carrying link's index within its group.
	Link int
	// Seq is the per-link send sequence number (starts at 1).
	Seq uint64
	// Payload is the message body.
	Payload any
}

// XLink is a unidirectional, latency-ful channel between two partitions —
// the only way state may cross a partition boundary. Its latency is the
// link's lookahead: the kernel relies on no send becoming visible at the
// destination sooner than latency after it was issued, which is what lets
// partitions run ahead of each other inside that bound.
type XLink struct {
	g        *Group
	id       int
	name     string
	src, dst PartitionID
	latency  Duration
	seq      uint64
	sent     uint64
	// staged holds the current window's sends; only the source partition's
	// (single-threaded) execution appends, and only the barrier drains.
	staged []XMsg
	// Inbox is the destination-side queue messages are delivered into at
	// their arrival instants. Receivers Pop it (or use Recv).
	Inbox *Queue[XMsg]
}

// Connect declares a link from src to dst with the given latency (the
// link's lookahead bound). Latency must be strictly positive — a
// zero-lookahead link would force the partitions into lockstep and the
// conservative kernel refuses to model it.
func (g *Group) Connect(name string, src, dst PartitionID, latency Duration) *XLink {
	if latency <= 0 {
		panic(fmt.Sprintf("sim: link %q: lookahead must be positive, got %v", name, latency))
	}
	if src == dst {
		panic(fmt.Sprintf("sim: link %q: src and dst are the same partition", name))
	}
	if int(src) < 0 || int(src) >= len(g.envs) || int(dst) < 0 || int(dst) >= len(g.envs) {
		panic(fmt.Sprintf("sim: link %q: unknown partition id", name))
	}
	l := &XLink{
		g: g, id: len(g.links), name: name,
		src: src, dst: dst, latency: latency,
		Inbox: NewQueue[XMsg](g.envs[dst]),
	}
	g.links = append(g.links, l)
	g.dist = nil
	return l
}

// Latency returns the link's lookahead bound.
func (l *XLink) Latency() Duration { return l.latency }

// Sent returns how many messages have been sent on the link.
func (l *XLink) Sent() uint64 { return l.sent }

// Send stages payload for delivery to the destination partition at
// p.Now()+latency and returns that arrival instant. It must be called from
// a proc of the source partition.
func (l *XLink) Send(p *Proc, payload any) Time {
	if p.env != l.g.envs[l.src] {
		panic(fmt.Sprintf("sim: link %q: Send from a proc outside the source partition", l.name))
	}
	l.seq++
	l.sent++
	at := p.Now().Add(l.latency)
	l.staged = append(l.staged, XMsg{At: at, Link: l.id, Seq: l.seq, Payload: payload})
	return at
}

// Recv blocks p until a message is delivered on the link and returns it.
// It must be called from a proc of the destination partition.
func (l *XLink) Recv(p *Proc) XMsg { return l.Inbox.Pop(p) }

// computeDist runs Floyd-Warshall over the link topology. Latencies are
// tiny against the int64 range, so sums cannot overflow once unreachable
// pairs are kept as a sentinel instead of an additive infinity.
func (g *Group) computeDist() {
	n := len(g.envs)
	d := make([][]Duration, n)
	for i := range d {
		d[i] = make([]Duration, n)
		for j := range d[i] {
			d[i][j] = -1
		}
	}
	for _, l := range g.links {
		if cur := d[l.src][l.dst]; cur < 0 || l.latency < cur {
			d[l.src][l.dst] = l.latency
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if d[i][k] < 0 {
				continue
			}
			for j := 0; j < n; j++ {
				if d[k][j] < 0 {
					continue
				}
				via := d[i][k] + d[k][j]
				if cur := d[i][j]; cur < 0 || via < cur {
					d[i][j] = via
				}
			}
		}
	}
	g.dist = d
}

// horizons fills hor[i] with the earliest instant any other partition
// could inject an event into partition i, or MaxTime when nothing can.
func (g *Group) horizons(next []Time, has []bool, hor []Time) {
	for i := range g.envs {
		h := MaxTime
		for j := range g.envs {
			if j == i || !has[j] || g.dist[j][i] < 0 {
				continue
			}
			if b := next[j].Add(g.dist[j][i]); b < h {
				h = b
			}
		}
		hor[i] = h
	}
}

// deliver drains every link's staged sends and injects them into the
// destination partitions: per destination, the batch is sorted by
// (arrival, link id, sequence) and a delivery proc walks it, waiting until
// each arrival instant before pushing into the link's inbox. Called only
// at barriers, with no partition running.
func (g *Group) deliver() {
	n := len(g.envs)
	batches := make([][]XMsg, n)
	for _, l := range g.links {
		if len(l.staged) == 0 {
			continue
		}
		batches[l.dst] = append(batches[l.dst], l.staged...)
		l.staged = l.staged[:0]
	}
	for dst, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		g.stats.Delivered += uint64(len(batch))
		sort.Slice(batch, func(i, j int) bool {
			a, b := batch[i], batch[j]
			if a.At != b.At {
				return a.At < b.At
			}
			if a.Link != b.Link {
				return a.Link < b.Link
			}
			return a.Seq < b.Seq
		})
		batch := batch
		g.envs[dst].Spawn("xpart-deliver", func(p *Proc) {
			for _, m := range batch {
				p.WaitUntil(m.At)
				g.links[m.Link].Inbox.Push(m)
			}
		})
	}
}

// Run executes the group until every partition's heap is empty or every
// remaining event lies beyond limit, using up to workers goroutines to run
// partition windows concurrently (workers <= 0 means one per partition).
// On a clean end with events left beyond the limit, every partition clock
// is advanced to limit, mirroring the serial RunUntil contract. A
// DeadlockError carrying per-partition state is returned when, before the
// limit, live non-daemon procs remain with no event or message that could
// ever wake them.
func (g *Group) Run(workers int, limit Time) error {
	if g.started {
		panic("sim: Group.Run called twice")
	}
	g.started = true
	n := len(g.envs)
	if n == 0 {
		return nil
	}
	if workers <= 0 || workers > n {
		workers = n
	}
	if g.dist == nil {
		g.computeDist()
	}

	var (
		wg   sync.WaitGroup
		jobs chan windowJob
		// panics[i] holds partition i's proc-body panic from the round's
		// worker window, re-raised here after the barrier.
		panics []any
	)
	if workers > 1 {
		jobs = make(chan windowJob)
		panics = make([]any, n)
		defer close(jobs)
		for w := 0; w < workers; w++ {
			go func() {
				for j := range jobs {
					j.run(&wg)
				}
			}()
		}
	}

	next := make([]Time, n)
	has := make([]bool, n)
	hor := make([]Time, n)
	for {
		idle := true
		for i, e := range g.envs {
			next[i], has[i] = e.NextEventTime()
			if has[i] && next[i] <= limit {
				idle = false
			}
		}
		if idle {
			break
		}
		g.stats.Rounds++
		g.horizons(next, has, hor)
		ran := 0
		for i, e := range g.envs {
			if !has[i] {
				continue
			}
			target := limit
			if hor[i] != MaxTime && hor[i]-1 < target {
				target = hor[i] - 1
			}
			if next[i] > target {
				continue
			}
			g.stats.Windows++
			ran++
			if workers > 1 {
				wg.Add(1)
				jobs <- windowJob{e, target, &panics[i]}
			} else {
				e.runWindow(target)
			}
		}
		if workers > 1 {
			wg.Wait()
			// Like the serial kernel, a proc-body panic reaches the caller
			// of Run with its original value (the lowest partition's first).
			for _, p := range panics {
				if p != nil {
					panic(p)
				}
			}
		}
		if ran == 0 {
			// Unreachable: the partition holding the globally earliest
			// event always has a horizon strictly beyond it (links have
			// positive latency). Kept as a livelock guard.
			break
		}
		g.deliver()
	}

	remaining := false
	for _, e := range g.envs {
		if _, ok := e.NextEventTime(); ok {
			remaining = true
			break
		}
	}
	if remaining {
		// Every pending event lies beyond the limit: align the clocks and
		// leave the events queued, exactly like the serial RunUntil.
		for _, e := range g.envs {
			e.advanceTo(limit)
		}
		g.started = false
		return nil
	}
	g.started = false
	return g.deadlock()
}

// windowJob is one partition window dispatched to a worker goroutine.
type windowJob struct {
	env      *Env
	target   Time
	panicked *any
}

// run executes the window and marks it done. A proc-body panic is recovered
// into j.panicked, once per window and without allocating, so it cannot end
// the process on the worker goroutine; Run re-raises it on its caller.
func (j windowJob) run(wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() {
		if r := recover(); r != nil {
			*j.panicked = r
		}
	}()
	j.env.runWindow(j.target)
}

// deadlock builds the per-partition diagnostic error, or returns nil when
// no non-daemon proc is stuck.
func (g *Group) deadlock() error {
	n := len(g.envs)
	pending := make([]int, n)
	for _, l := range g.links {
		pending[l.dst] += l.Inbox.Len()
	}
	var (
		states []PartitionState
		all    []string
		at     Time
	)
	for i, e := range g.envs {
		parked, daemons := e.blockedState()
		if e.now > at {
			at = e.now
		}
		states = append(states, PartitionState{
			Name: g.names[i], Now: e.now,
			Parked: parked, Daemons: daemons, Pending: pending[i],
		})
		for _, name := range parked {
			all = append(all, g.names[i]+"/"+name)
		}
	}
	if len(all) == 0 {
		return nil
	}
	sort.Strings(all)
	return DeadlockError{Time: at, Blocked: all, Partitions: states}
}

// Shutdown force-terminates every partition's remaining procs, releasing
// their goroutines. The group must not be used afterwards.
func (g *Group) Shutdown() {
	for _, e := range g.envs {
		e.Shutdown()
	}
}
