package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestWaitAdvancesClock(t *testing.T) {
	env := NewEnv(1)
	var end Time
	env.Spawn("sleeper", func(p *Proc) {
		p.Wait(5 * Millisecond)
		end = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if end != Time(5*Millisecond) {
		t.Fatalf("end = %v, want 5ms", end)
	}
}

func TestWaitZeroAndNegative(t *testing.T) {
	env := NewEnv(1)
	ran := false
	env.Spawn("p", func(p *Proc) {
		p.Wait(0)
		p.Wait(-3)
		p.Yield()
		ran = true
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || env.Now() != 0 {
		t.Fatalf("ran=%v now=%v", ran, env.Now())
	}
}

func TestEventOrderingDeterministic(t *testing.T) {
	run := func() []string {
		env := NewEnv(7)
		var order []string
		for i := 0; i < 5; i++ {
			name := fmt.Sprintf("p%d", i)
			d := Duration((5 - i)) * Millisecond
			env.Spawn(name, func(p *Proc) {
				p.Wait(d)
				order = append(order, p.Name())
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	want := []string{"p4", "p3", "p2", "p1", "p0"}
	for i := range want {
		if a[i] != want[i] || b[i] != want[i] {
			t.Fatalf("order a=%v b=%v want=%v", a, b, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	env := NewEnv(1)
	var order []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("p%d", i)
		env.Spawn(name, func(p *Proc) {
			p.Wait(Millisecond) // all wake at the same instant
			order = append(order, p.Name())
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"p0", "p1", "p2", "p3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v want=%v", order, want)
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	env := NewEnv(1)
	var childTime Time
	env.Spawn("parent", func(p *Proc) {
		p.Wait(2 * Millisecond)
		p.env.Spawn("child", func(c *Proc) {
			c.Wait(Millisecond)
			childTime = c.Now()
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != Time(3*Millisecond) {
		t.Fatalf("childTime=%v want 3ms", childTime)
	}
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	env := NewEnv(1)
	ticks := 0
	env.Spawn("ticker", func(p *Proc) {
		for {
			p.Wait(Second)
			ticks++
		}
	})
	if err := env.RunUntil(Time(4*Second + Millisecond)); err != nil {
		t.Fatal(err)
	}
	if ticks != 4 {
		t.Fatalf("ticks=%d want 4", ticks)
	}
	if env.Now() != Time(4*Second+Millisecond) {
		t.Fatalf("now=%v", env.Now())
	}
	env.Shutdown()
	if env.LiveProcs() != 0 {
		t.Fatalf("live=%d after shutdown", env.LiveProcs())
	}
}

func TestDeadlockDetection(t *testing.T) {
	env := NewEnv(1)
	ev := NewEvent(env)
	env.Spawn("stuck", func(p *Proc) {
		ev.Wait(p) // never fired
	})
	err := env.Run()
	de, ok := err.(DeadlockError)
	if !ok {
		t.Fatalf("err=%v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck" {
		t.Fatalf("blocked=%v", de.Blocked)
	}
	env.Shutdown()
}

func TestDeterministicRandStream(t *testing.T) {
	seq := func(seed int64) []int64 {
		env := NewEnv(seed)
		var out []int64
		env.Spawn("r", func(p *Proc) {
			for i := 0; i < 8; i++ {
				out = append(out, env.Rand().Int63())
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b, c := seq(42), seq(42), seq(43)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different streams")
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestWaitUntilPastIsNoop(t *testing.T) {
	env := NewEnv(1)
	env.Spawn("p", func(p *Proc) {
		p.Wait(5 * Millisecond)
		p.WaitUntil(Time(Millisecond)) // in the past
		if p.Now() != Time(5*Millisecond) {
			t.Errorf("now=%v", p.Now())
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcessesComplete(t *testing.T) {
	env := NewEnv(3)
	const n = 500
	done := 0
	for i := 0; i < n; i++ {
		d := Duration(i%17) * Microsecond
		env.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for j := 0; j < 5; j++ {
				p.Wait(d)
			}
			done++
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("done=%d want %d", done, n)
	}
}

// TestQuickKernelDeterminism: a randomized mesh of processes exchanging
// values through queues with CPU contention produces a bit-identical event
// trace on every run with the same seed.
func TestQuickKernelDeterminism(t *testing.T) {
	trace := func(seed int64) []string {
		env := NewEnv(seed)
		cpu := NewCPU(env, "c", 2, 1.0, 100)
		queues := make([]*Queue[int], 4)
		for i := range queues {
			queues[i] = NewQueue[int](env)
		}
		var log []string
		for i := 0; i < 6; i++ {
			id := i
			th := NewThread(fmt.Sprintf("t%d", i), "w")
			env.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				r := env.Rand()
				for step := 0; step < 20; step++ {
					cpu.Exec(p, th, int64(100+r.Intn(500)))
					q := queues[r.Intn(len(queues))]
					if r.Intn(2) == 0 {
						q.Push(id*100 + step)
					} else if v, ok := q.TryPop(); ok {
						log = append(log, fmt.Sprintf("%d:%d@%d", id, v, p.Now()))
					}
					p.Wait(Duration(r.Intn(1000)))
				}
				log = append(log, fmt.Sprintf("done%d@%d", id, p.Now()))
			})
		}
		if err := env.RunUntil(MaxTime); err != nil {
			t.Fatal(err)
		}
		env.Shutdown()
		return log
	}
	for seed := int64(1); seed <= 3; seed++ {
		a, b := trace(seed), trace(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: traces diverge at %d: %q vs %q", seed, i, a[i], b[i])
			}
		}
	}
	// Different seeds should differ (sanity that the trace captures anything).
	a, b := trace(1), trace(2)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// settleGoroutines waits (briefly) for the goroutine count to drop back to
// at most want. Proc coroutines exit synchronously inside Shutdown, but the
// worker goroutines of a finished Group.Run exit asynchronously.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Fatalf("goroutines after Shutdown = %d, want %d (leaked proc coroutines)", got, want)
	}
}

// TestShutdownReleasesGoroutines: Shutdown ends every proc coroutine the
// Env holds — finished procs parked in the reuse pool, parked daemons, and
// procs spawned but never started (both reused and freshly created).
func TestShutdownReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	q := NewQueue[int](env)
	for i := 0; i < 4; i++ {
		env.Spawn(fmt.Sprintf("finisher%d", i), func(p *Proc) { p.Wait(Millisecond) })
	}
	for i := 0; i < 2; i++ {
		env.SpawnDaemon(fmt.Sprintf("daemon%d", i), func(p *Proc) {
			for {
				q.Pop(p)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Two never-started procs reuse pooled coroutines; two stay pooled. A
	// second Env that never runs holds a never-started fresh coroutine.
	unstarted := func(p *Proc) { t.Error("unstarted proc ran") }
	env.Spawn("unstarted0", unstarted)
	env.Spawn("unstarted1", unstarted)
	idle := NewEnv(2)
	idle.Spawn("unstarted2", unstarted)
	if got := runtime.NumGoroutine(); got <= before {
		t.Fatalf("goroutines = %d before Shutdown, want more than %d (one per proc coroutine)", got, before)
	}
	env.Shutdown()
	idle.Shutdown()
	if env.LiveProcs() != 0 || idle.LiveProcs() != 0 {
		t.Fatalf("live=%d,%d after shutdown", env.LiveProcs(), idle.LiveProcs())
	}
	settleGoroutines(t, before)
}

// TestGroupShutdownReleasesGoroutines: the same guarantee for a
// partitioned run at two kernel workers, where each window runs on
// whichever worker goroutine takes it, so one proc coroutine is resumed
// from different goroutines across windows — and across the two Run calls,
// whose worker pools are distinct.
func TestGroupShutdownReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	g := NewGroup()
	a, b := NewEnv(1), NewEnv(2)
	pa, pb := g.Add("a", a), g.Add("b", b)
	ab := g.Connect("a->b", pa, pb, 10*Microsecond)
	ba := g.Connect("b->a", pb, pa, 7*Microsecond)
	const rounds = 50
	got := 0
	a.Spawn("pinger", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Wait(3 * Microsecond)
			ab.Send(p, i)
			got += ba.Recv(p).Payload.(int)
		}
	})
	b.SpawnDaemon("ponger", func(p *Proc) {
		for {
			ba.Send(p, ab.Recv(p).Payload.(int))
		}
	})
	a.Spawn("finisher", func(p *Proc) { p.Wait(Microsecond) })
	if err := g.Run(2, Time(500*Microsecond)); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(2, MaxTime); err != nil {
		t.Fatal(err)
	}
	if want := rounds * (rounds - 1) / 2; got != want {
		t.Fatalf("pinger summed %d, want %d", got, want)
	}
	b.Spawn("unstarted", func(p *Proc) { t.Error("unstarted proc ran") })
	g.Shutdown()
	settleGoroutines(t, before)
}

// TestProcPanicReachesRunCaller: a panic in a proc body surfaces on the
// goroutine that called Run, with its original value, and leaves the Env
// in a state Shutdown can still reclaim.
func TestProcPanicReachesRunCaller(t *testing.T) {
	type boom struct{ code int }
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	ev := NewEvent(env)
	env.SpawnDaemon("parked", func(p *Proc) { ev.Wait(p) })
	env.Spawn("faulty", func(p *Proc) {
		p.Wait(Millisecond)
		panic(boom{code: 7})
	})
	var got any
	func() {
		defer func() { got = recover() }()
		_ = env.Run()
	}()
	if got != (boom{code: 7}) {
		t.Fatalf("recovered %#v, want boom{7}", got)
	}
	if env.Now() != Time(Millisecond) {
		t.Fatalf("now=%v, want 1ms", env.Now())
	}
	env.Shutdown()
	settleGoroutines(t, before)
}

// TestGroupProcPanicReachesRunCaller: under the parallel kernel a proc body
// runs on a worker goroutine, yet its panic still surfaces on the goroutine
// that called Group.Run, with its original value, and the group can still
// be shut down.
func TestGroupProcPanicReachesRunCaller(t *testing.T) {
	type boom struct{ code int }
	before := runtime.NumGoroutine()
	g := NewGroup()
	a, b := NewEnv(1), NewEnv(2)
	pa, pb := g.Add("a", a), g.Add("b", b)
	ab := g.Connect("a->b", pa, pb, 10*Microsecond)
	a.Spawn("sender", func(p *Proc) {
		p.Wait(Millisecond)
		ab.Send(p, 1)
	})
	b.Spawn("faulty", func(p *Proc) {
		ab.Recv(p)
		panic(boom{code: 9})
	})
	var got any
	func() {
		defer func() { got = recover() }()
		_ = g.Run(2, MaxTime)
	}()
	if got != (boom{code: 9}) {
		t.Fatalf("recovered %#v, want boom{9}", got)
	}
	if want := Time(Millisecond + 10*Microsecond); b.Now() != want {
		t.Fatalf("partition b now=%v, want %v", b.Now(), want)
	}
	g.Shutdown()
	settleGoroutines(t, before)
}
