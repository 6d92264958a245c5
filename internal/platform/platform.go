// Package platform simulates the execution hosts the paper evaluates on
// (server: 16 cores, cloud: 8 cores, HPC: 64 cores) and provides the process
// accounting behind the paper's two metrics:
//
//   - runtime: wall-clock duration of a workflow run, and
//   - total process time: the sum over processes of the time each spent in
//     the *active* state (the paper: "process time accounts for all active
//     process durations, reflecting overall efficiency").
//
// A Host owns a core gate — a counting semaphore with one slot per simulated
// core. Workers executing PE service time hold a slot for the duration, so
// oversubscribing a small host (more worker processes than cores, the cloud
// scenario) stops improving runtime and instead inflates process time,
// exactly the effect in the paper's Figures 9 and 12b.
//
// Workloads express PE cost as a duration; Host.Work parks the calling
// goroutine for that long while holding a core slot. On a real machine the
// sleeps of many workers overlap exactly as busy CPU work would across real
// cores, so measured wall-clock shapes match the paper's without requiring
// actual multi-core hardware.
package platform

import (
	"fmt"
	"sync"
	"time"
)

// Platform describes a host type.
type Platform struct {
	// Name identifies the platform in reports ("server", "cloud", "hpc").
	Name string
	// Cores is the number of simultaneously usable cores.
	Cores int
	// QueueOpCost is the serialized synchronization cost of one global-queue
	// operation (lock + copy). Dynamic mappings pay it on every task fetch
	// and result push, which is what makes total process time creep upward
	// as active process counts grow.
	QueueOpCost time.Duration
}

// The paper's three evaluation platforms. Core counts are the paper's; the
// queue-op costs are calibrated so that relative overheads (multi vs Redis
// vs dynamic) land in the paper's observed ranges at the harness timescale.
var (
	Server = Platform{Name: "server", Cores: 16, QueueOpCost: 25 * time.Microsecond}
	Cloud  = Platform{Name: "cloud", Cores: 8, QueueOpCost: 40 * time.Microsecond}
	HPC    = Platform{Name: "hpc", Cores: 64, QueueOpCost: 20 * time.Microsecond}
)

// ByName returns a built-in platform by name.
func ByName(name string) (Platform, error) {
	switch name {
	case "server":
		return Server, nil
	case "cloud":
		return Cloud, nil
	case "hpc":
		return HPC, nil
	default:
		return Platform{}, fmt.Errorf("platform: unknown platform %q (want server, cloud or hpc)", name)
	}
}

// Host is a live instance of a Platform: a core gate plus a process registry.
// A fresh Host is created per workflow run so process-time accounting starts
// from zero.
type Host struct {
	plat Platform
	gate chan struct{}

	mu    sync.Mutex
	procs []*Process
}

// NewHost creates a host for the given platform.
func NewHost(p Platform) *Host {
	if p.Cores <= 0 {
		p.Cores = 1
	}
	return &Host{plat: p, gate: make(chan struct{}, p.Cores)}
}

// Platform returns the host's platform description.
func (h *Host) Platform() Platform { return h.plat }

// Work occupies one core for d. Zero or negative d returns immediately.
func (h *Host) Work(d time.Duration) {
	if d <= 0 {
		return
	}
	h.gate <- struct{}{}
	time.Sleep(d)
	<-h.gate
}

// SyncCost returns the platform's per-queue-op synchronization cost. Queue
// implementations spin this long while holding their lock, so contending
// workers serialize behind each other the same way processes serialize on a
// multiprocessing.Queue's internal lock.
func (h *Host) SyncCost() time.Duration { return h.plat.QueueOpCost }

// SpinWait busy-waits for d. Sub-millisecond costs cannot use time.Sleep —
// the runtime timer granularity would inflate a 25µs sleep to ~1ms, wildly
// overstating queue costs — so short synchronization delays burn cycles on
// a monotonic clock instead, exactly like a lock-holder doing real work.
func SpinWait(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// NewProcess registers a new simulated process. It starts inactive; callers
// activate it when the worker begins participating in execution.
func (h *Host) NewProcess(name string) *Process {
	p := &Process{host: h, name: name}
	h.mu.Lock()
	p.id = len(h.procs)
	h.procs = append(h.procs, p)
	h.mu.Unlock()
	return p
}

// TotalProcessTime sums the active spans of all registered processes,
// including spans still open at call time.
func (h *Host) TotalProcessTime() time.Duration {
	h.mu.Lock()
	procs := append([]*Process(nil), h.procs...)
	h.mu.Unlock()
	var total time.Duration
	now := time.Now()
	for _, p := range procs {
		total += p.ActiveTime(now)
	}
	return total
}

// Process is one simulated OS process with active-span accounting. The
// active state corresponds to the paper's auto-scaler states: an active
// process accrues process time; an idle (deactivated) one does not.
type Process struct {
	host *Host
	name string
	id   int

	mu          sync.Mutex
	active      bool
	activeSince time.Time
	accumulated time.Duration
	spans       int
}

// ID returns the process's registration index on its host.
func (p *Process) ID() int { return p.id }

// Name returns the process name given at creation.
func (p *Process) Name() string { return p.name }

// Activate begins an active span. Activating an already-active process is a
// no-op, so callers on the scale-up path need no extra state.
func (p *Process) Activate() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active {
		return
	}
	p.active = true
	p.activeSince = time.Now()
	p.spans++
}

// Deactivate ends the current active span (idle / low-energy standby in the
// paper's terms). Deactivating an inactive process is a no-op.
func (p *Process) Deactivate() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.active {
		return
	}
	p.active = false
	p.accumulated += time.Since(p.activeSince)
}

// Active reports whether the process is currently accruing process time.
func (p *Process) Active() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active
}

// Spans reports how many activation spans the process has begun; the
// auto-scaling analysis uses it to show processes cycling between states.
func (p *Process) Spans() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spans
}

// ActiveTime returns the total active duration accrued up to now.
func (p *Process) ActiveTime(now time.Time) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.accumulated
	if p.active {
		total += now.Sub(p.activeSince)
	}
	return total
}

// Work occupies a core on the owning host for d. It is a convenience so
// worker loops carry only the Process.
func (p *Process) Work(d time.Duration) { p.host.Work(d) }
