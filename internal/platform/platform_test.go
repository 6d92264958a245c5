package platform

import (
	"sync"
	"testing"
	"time"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"server", "cloud", "hpc"} {
		p, err := ByName(name)
		if err != nil || p.Name != name || p.Cores <= 0 {
			t.Errorf("ByName(%q) = %+v, %v", name, p, err)
		}
	}
	if _, err := ByName("laptop"); err == nil {
		t.Error("unknown platform should error")
	}
}

func TestWorkParallelWithinCores(t *testing.T) {
	h := NewHost(Platform{Name: "t", Cores: 4})
	const d = 40 * time.Millisecond
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.Work(d)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Four units on four cores should take ~1 unit, not 4.
	if elapsed > 3*d {
		t.Errorf("4 tasks on 4 cores took %v, want ≈ %v", elapsed, d)
	}
}

func TestWorkSerializesBeyondCores(t *testing.T) {
	h := NewHost(Platform{Name: "t", Cores: 1})
	const d = 25 * time.Millisecond
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.Work(d)
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 3*d-5*time.Millisecond {
		t.Errorf("3 tasks on 1 core took %v, want ≥ %v", elapsed, 3*d)
	}
}

func TestWorkZeroIsImmediate(t *testing.T) {
	h := NewHost(Server)
	start := time.Now()
	h.Work(0)
	h.Work(-time.Second)
	if time.Since(start) > 10*time.Millisecond {
		t.Error("zero work should not block")
	}
}

func TestProcessAccounting(t *testing.T) {
	h := NewHost(Server)
	p := h.NewProcess("w0")
	if p.Active() {
		t.Fatal("fresh process should be inactive")
	}
	if got := p.ActiveTime(time.Now()); got != 0 {
		t.Fatalf("fresh process active time %v", got)
	}
	p.Activate()
	time.Sleep(30 * time.Millisecond)
	p.Deactivate()
	span1 := p.ActiveTime(time.Now())
	if span1 < 20*time.Millisecond {
		t.Errorf("active span too short: %v", span1)
	}
	// Idle period must not accrue.
	time.Sleep(30 * time.Millisecond)
	if got := p.ActiveTime(time.Now()); got != span1 {
		t.Errorf("idle time accrued: %v vs %v", got, span1)
	}
	// Second span accrues on top.
	p.Activate()
	time.Sleep(20 * time.Millisecond)
	p.Deactivate()
	if got := p.ActiveTime(time.Now()); got < span1+10*time.Millisecond {
		t.Errorf("second span missing: %v", got)
	}
	if p.Spans() != 2 {
		t.Errorf("spans=%d want 2", p.Spans())
	}
}

func TestActivateIdempotent(t *testing.T) {
	h := NewHost(Server)
	p := h.NewProcess("w")
	p.Activate()
	p.Activate()
	if p.Spans() != 1 {
		t.Errorf("double activate created %d spans", p.Spans())
	}
	p.Deactivate()
	p.Deactivate() // no panic, no negative time
	if got := p.ActiveTime(time.Now()); got < 0 {
		t.Errorf("negative active time %v", got)
	}
}

func TestTotalProcessTimeSums(t *testing.T) {
	h := NewHost(Server)
	a := h.NewProcess("a")
	b := h.NewProcess("b")
	a.Activate()
	b.Activate()
	time.Sleep(25 * time.Millisecond)
	a.Deactivate()
	b.Deactivate()
	total := h.TotalProcessTime()
	if total < 40*time.Millisecond {
		t.Errorf("total %v, want ≥ ~50ms", total)
	}
}

func TestOpenSpanCountsInTotal(t *testing.T) {
	h := NewHost(Server)
	p := h.NewProcess("open")
	p.Activate()
	time.Sleep(20 * time.Millisecond)
	if total := h.TotalProcessTime(); total < 10*time.Millisecond {
		t.Errorf("open span not counted: %v", total)
	}
	p.Deactivate()
}

func TestNewHostDefaultsCores(t *testing.T) {
	h := NewHost(Platform{Name: "broken", Cores: 0})
	done := make(chan struct{})
	go func() {
		h.Work(time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Work deadlocked with zero cores")
	}
}

func TestProcessWorkUsesHostGate(t *testing.T) {
	h := NewHost(Platform{Name: "t", Cores: 1})
	p1 := h.NewProcess("p1")
	p2 := h.NewProcess("p2")
	const d = 20 * time.Millisecond
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p1.Work(d) }()
	go func() { defer wg.Done(); p2.Work(d) }()
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 2*d-5*time.Millisecond {
		t.Errorf("two processes on one core overlapped: %v", elapsed)
	}
}
