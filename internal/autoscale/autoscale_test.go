package autoscale

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scripted replays a fixed sequence of deltas, then holds.
type scripted struct{ deltas []int }

func (s *scripted) Name() string { return "scripted" }

func (s *scripted) Signal() Signal { return Outstanding }

func (s *scripted) Decide(float64, int) int {
	if len(s.deltas) == 0 {
		return 0
	}
	d := s.deltas[0]
	s.deltas = s.deltas[1:]
	return d
}

// admit calls Admit(w) on its own goroutine and delivers the result.
func admit(c *Controller, w int) <-chan bool {
	done := make(chan bool, 1)
	go func() { done <- c.Admit(w) }()
	return done
}

func TestConfigDefaults(t *testing.T) {
	c := NewController(Config{MaxPoolSize: 16}, &QueueSizeStrategy{}, nil)
	cfg := c.Config()
	if cfg.InitialActive != 8 {
		t.Errorf("default initial active %d, want max/2=8", cfg.InitialActive)
	}
	if cfg.MinActive != 1 || cfg.Interval <= 0 {
		t.Errorf("defaults: %+v", cfg)
	}
	if c.Stats().Active != 8 {
		t.Errorf("active=%d", c.Stats().Active)
	}
}

func TestGrowShrinkBounds(t *testing.T) {
	c := NewController(Config{MaxPoolSize: 4, InitialActive: 2}, &scripted{deltas: []int{+10, -10}}, nil)
	c.Step(0)
	if c.Stats().Active != 4 {
		t.Errorf("grow capped at max: %d", c.Stats().Active)
	}
	c.Step(0)
	if c.Stats().Active != 1 {
		t.Errorf("shrink floored at min: %d", c.Stats().Active)
	}
	if st := c.Stats(); st.Grows != 1 || st.Shrinks != 1 {
		t.Errorf("resize counts: %+v", st)
	}
}

func TestQueueSizeStrategy(t *testing.T) {
	s := &QueueSizeStrategy{Floor: 2}
	if d := s.Decide(5, 0); d != 0 {
		t.Errorf("first sample should be neutral, got %d", d)
	}
	if d := s.Decide(8, 0); d != 1 {
		t.Errorf("growing queue above floor should grow, got %d", d)
	}
	if d := s.Decide(3, 0); d != -1 {
		t.Errorf("shrinking queue should shrink, got %d", d)
	}
	if d := s.Decide(3, 0); d != 0 {
		t.Errorf("flat queue above floor should hold, got %d", d)
	}
	// Flat and above floor: hold.
	s2 := &QueueSizeStrategy{Floor: 2}
	s2.Decide(5, 0)
	s2.Decide(6, 0)
	if d := s2.Decide(6, 0); d != 0 {
		t.Errorf("flat queue above floor should hold, got %d", d)
	}
	// Growing but under the floor: shrink (low-demand guard).
	s3 := &QueueSizeStrategy{Floor: 10}
	s3.Decide(1, 0)
	if d := s3.Decide(2, 0); d != -1 {
		t.Errorf("growth under floor should still shrink, got %d", d)
	}
}

func TestIdleTimeStrategy(t *testing.T) {
	s := &IdleTimeStrategy{Threshold: 50 * time.Millisecond}
	if d := s.Decide(80, 0); d != -1 {
		t.Errorf("idle above threshold should shrink, got %d", d)
	}
	if d := s.Decide(10, 0); d != 1 {
		t.Errorf("busy consumers should grow, got %d", d)
	}
}

func TestDemandStrategy(t *testing.T) {
	for _, tc := range []struct {
		outstanding  float64
		active, want int
	}{{12, 4, +8}, {4, 4, 0}, {0, 5, -5}, {1000, 16, +984}} {
		if d := (DemandStrategy{}).Decide(tc.outstanding, tc.active); d != tc.want {
			t.Errorf("Decide(%v, %d) = %d, want %d", tc.outstanding, tc.active, d, tc.want)
		}
	}
}

func TestStepAppliesStrategyAndTraces(t *testing.T) {
	trace := &Trace{}
	c := NewController(Config{MaxPoolSize: 8, InitialActive: 4}, &QueueSizeStrategy{Floor: 1}, trace)
	c.Step(5) // first sample: neutral, records iteration 1
	c.Step(9) // grew → +1
	c.Step(9) // flat → hold, metric unchanged → no new trace point
	c.Step(2) // shrank → -1
	if got := c.Stats().Active; got != 4 {
		t.Errorf("active=%d want 4 (4+1-1)", got)
	}
	pts := trace.Points()
	if len(pts) != 3 {
		t.Fatalf("trace points: %+v", pts)
	}
	if pts[1].Active != 5 || pts[1].Metric != 9 {
		t.Errorf("trace[1]: %+v", pts[1])
	}
	if pts[0].Iteration != 1 || pts[2].Iteration != 3 {
		t.Errorf("iterations: %+v", pts)
	}
}

// Admission is by count: whichever workers join first fill the active size,
// whatever their index.
func TestAdmitBlocksIdleWorkers(t *testing.T) {
	c := NewController(Config{MaxPoolSize: 4, InitialActive: 1}, &scripted{deltas: []int{+2}}, nil)
	if c.Gate(3) {
		t.Fatal("the first joiner must be admitted at once, whatever its index")
	}
	if !c.Gate(0) || !c.Gate(2) {
		t.Fatal("later joiners must park at active=1")
	}
	if !c.Admitted(3) || c.Admitted(0) || c.Admitted(2) || c.Admitted(1) || c.Admitted(99) {
		t.Fatal("only worker 3 is admitted")
	}
	w0, w2 := admit(c, 0), admit(c, 2)
	select {
	case <-w2:
		t.Fatal("worker 2 admitted while the pool is full")
	case <-time.After(30 * time.Millisecond):
	}
	c.Step(0) // active=3 readmits both parked workers
	for w, done := range map[int]<-chan bool{0: w0, 2: w2} {
		select {
		case ok := <-done:
			if !ok {
				t.Fatalf("worker %d: admission after grow should be true", w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("worker %d never admitted after grow", w)
		}
	}
	if st := c.Stats(); st.Running != 3 || st.Parked != 0 || st.Active != 3 {
		t.Errorf("stats after grow: %+v", st)
	}
}

// A grow readmits exactly as many parked workers as fit, lowest index first.
func TestGrowWakesExactlyAsManyAsFit(t *testing.T) {
	c := NewController(Config{MaxPoolSize: 6, InitialActive: 1}, &scripted{deltas: []int{+2, 0, -1, +1}}, nil)
	c.Gate(0)
	for w := 1; w < 6; w++ {
		if !c.Gate(w) {
			t.Fatalf("worker %d should park", w)
		}
	}
	woken := func() (ws []int) {
		for w := range c.resume {
			if len(c.resume[w]) == 1 {
				ws = append(ws, w)
			}
		}
		return ws
	}
	c.Step(0) // 1 → 3
	if ws := woken(); len(ws) != 2 || ws[0] != 1 || ws[1] != 2 {
		t.Fatalf("grow by 2 woke %v, want [1 2]", ws)
	}
	c.Step(0) // hold
	c.Step(0) // 3 → 2: running stays 3 until a worker reaches its gate
	c.Step(0) // 2 → 3: nobody fits
	if ws := woken(); len(ws) != 2 {
		t.Fatalf("resizes with a full pool woke %v", ws)
	}
	if st := c.Stats(); st.Running != 3 || st.Parked != 3 {
		t.Errorf("stats: %+v", st)
	}
}

func TestTerminateReleasesWorkers(t *testing.T) {
	c := NewController(Config{MaxPoolSize: 4, InitialActive: 1}, &QueueSizeStrategy{}, nil)
	c.Gate(0)
	var wg sync.WaitGroup
	results := make(chan bool, 3)
	for w := 1; w <= 3; w++ {
		if !c.Gate(w) {
			t.Fatalf("worker %d should park", w)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results <- c.Admit(w)
		}(w)
	}
	c.Terminate()
	c.Terminate() // idempotent
	wg.Wait()
	close(results)
	for ok := range results {
		if ok {
			t.Error("Admit should return false after Terminate")
		}
	}
}

func TestRunMonitorLoop(t *testing.T) {
	trace := &Trace{}
	c := NewController(
		Config{MaxPoolSize: 8, InitialActive: 4, Interval: time.Millisecond},
		&IdleTimeStrategy{Threshold: 10 * time.Millisecond}, trace)
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		c.RunMonitor(func() float64 {
			return 2 // always below the 10ms threshold → keep growing
		})
	}()
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Active != 8; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("monitor should have grown to max, active=%d", c.Stats().Active)
		}
	}
	c.Terminate()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("RunMonitor did not return after Terminate")
	}
	if len(trace.Points()) == 0 {
		t.Error("monitor produced no trace points")
	}
}

func TestOnScaleReportsEveryResize(t *testing.T) {
	c := NewController(Config{MaxPoolSize: 4, InitialActive: 2}, &scripted{deltas: []int{+2, 0, -1}}, nil)
	var got [][2]int
	c.OnScale(func(from, to int) { got = append(got, [2]int{from, to}) })
	for i := 0; i < 3; i++ {
		c.Step(0)
	}
	if len(got) != 2 || got[0] != [2]int{2, 4} || got[1] != [2]int{4, 3} {
		t.Errorf("OnScale calls: %v", got)
	}
}

// pool is a deterministic simulation of the worker loop against a demand
// controller: fake workers that serve one task per round, and a scripted
// number of outstanding tasks.
type pool struct {
	t       *testing.T
	c       *Controller
	demand  atomic.Int64
	running map[int]bool // workers the simulation believes are running
	parked  map[int]bool
}

func newPool(t *testing.T, size int) *pool {
	p := &pool{t: t, running: map[int]bool{}, parked: map[int]bool{}}
	p.c = NewController(Config{MaxPoolSize: size}, DemandStrategy{}, nil)
	p.c.GateOn(func() float64 { return float64(p.demand.Load()) })
	return p
}

// check compares the controller's counts with the simulation's.
func (p *pool) check() {
	p.t.Helper()
	if st := p.c.Stats(); st.Running != len(p.running) || st.Parked != len(p.parked) {
		p.t.Fatalf("controller counts %+v, simulation has %d running, %d parked", st, len(p.running), len(p.parked))
	}
}

// gate runs worker w's refill check and asserts the two admission rules: no
// worker parks while demand covers the running workers, and a worker parks on
// its first gate call once it does not.
func (p *pool) gate(w int) {
	p.t.Helper()
	if p.parked[w] {
		return
	}
	p.running[w] = true
	demand, running := int(p.demand.Load()), len(p.running)
	park := p.c.Gate(w)
	floor := p.c.Config().MinActive
	switch {
	case park && demand >= running:
		p.t.Fatalf("worker %d parked with demand %d >= running %d", w, demand, running)
	case !park && demand < running && running > floor:
		p.t.Fatalf("worker %d stayed admitted with demand %d < running %d", w, demand, running)
	}
	if park {
		delete(p.running, w)
		p.parked[w] = true
	}
	p.check()
}

// tick is one monitor evaluation; readmitted workers collect their wake-up.
func (p *pool) tick() {
	p.t.Helper()
	p.c.Step(float64(p.demand.Load()))
	for w := range p.parked {
		if p.c.Admitted(w) {
			if !p.c.Admit(w) {
				p.t.Fatalf("readmitted worker %d saw a terminated controller", w)
			}
			delete(p.parked, w)
			p.running[w] = true
		}
	}
	p.check()
}

func TestDemandControllerDrain(t *testing.T) {
	const size = 8
	p := newPool(t, size)
	p.demand.Store(1) // the seed task
	p.gate(5)
	if !p.running[5] {
		t.Fatal("the first joiner was not admitted at once")
	}
	for w := 0; w < size; w++ {
		p.gate(w) // the others join and park: one task, one worker
	}
	if len(p.running) != 1 {
		t.Fatalf("%d workers running on one outstanding task", len(p.running))
	}
	p.demand.Store(1000)
	p.tick()
	if len(p.running) != size || p.c.Stats().Active != size {
		t.Fatalf("backlog of 1000: running %d, active %d, want %d", len(p.running), p.c.Stats().Active, size)
	}
	// Drain: each round every running worker finishes one task and refills.
	for p.demand.Load() > 0 {
		for w := 0; w < size; w++ {
			if p.running[w] && p.demand.Load() > 0 {
				p.demand.Add(-1)
				p.gate(w)
			}
		}
		p.tick()
	}
	for w := 0; w < size; w++ {
		p.gate(w) // the workers that were still serving finish
	}
	if len(p.running) != 1 {
		t.Errorf("drained pool keeps %d workers, want the floor of 1", len(p.running))
	}
	p.c.Terminate()
	for w := range p.parked {
		if p.c.Admit(w) {
			t.Errorf("parked worker %d not released by Terminate", w)
		}
	}
}

func TestDemandControllerSteadyArrivals(t *testing.T) {
	const size = 16
	p := newPool(t, size)
	for w := 0; w < size; w++ {
		p.gate(w)
	}
	// Demand wanders between 3 and 9 outstanding tasks; the pool follows it
	// within one tick upward and at the gate downward.
	script := []int64{6, 7, 9, 8, 5, 3, 3, 4, 7, 9, 6, 3}
	for round := 0; round < 10; round++ {
		for _, d := range script {
			p.demand.Store(d)
			p.tick()
			if len(p.running) < int(d) {
				t.Fatalf("demand %d: only %d running after the tick", d, len(p.running))
			}
			for w := 0; w < size; w++ {
				p.gate(w)
			}
			if len(p.running) != int(d) {
				t.Fatalf("demand %d: %d running after every worker passed its gate", d, len(p.running))
			}
		}
	}
}

// Step and Gate resize the pool from different goroutines; under -race this
// also checks that the counts stay consistent (Step is one critical section).
func TestConcurrentStepAndGate(t *testing.T) {
	const size = 8
	var demand atomic.Int64
	c := NewController(Config{MaxPoolSize: size, Interval: 100 * time.Microsecond}, DemandStrategy{}, nil)
	probe := func() float64 { return float64(demand.Load()) }
	c.GateOn(probe)
	go c.RunMonitor(probe)
	defer c.Terminate()
	var wg sync.WaitGroup
	for w := 0; w < size; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if c.Gate(w) && !c.Admit(w) {
					t.Errorf("worker %d released by a controller nobody terminated", w)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// The demand keeps sweeping 0..size, so every parked worker is readmitted.
	for d := int64(0); ; d = (d + 1) % (size + 1) {
		demand.Store(d)
		select {
		case <-done:
			if st := c.Stats(); st.Running != size || st.Parked != 0 {
				t.Errorf("all workers finished running, controller has %+v", st)
			}
			return
		case <-time.After(50 * time.Microsecond):
		}
	}
}
