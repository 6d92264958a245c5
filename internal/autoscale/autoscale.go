// Package autoscale implements the paper's Algorithm 1: the auto-scaler that
// gives dynamic scheduling its active/idle process states. A Controller owns
// the active_size and the set of pool workers that have joined and are not
// parked. Admission is by count: a worker parks at its refill gate when more
// workers run than active_size allows, and the controller readmits exactly as
// many parked workers as the size grows by. A monitoring loop samples a
// workload metric every Interval and applies a Strategy to resize the pool.
//
// A strategy names the Signal it reads, and the engine samples that signal
// on every transport, so any strategy runs on any auto mapping:
//
//   - DemandStrategy, the one default: sizes the pool to the outstanding
//     tasks (Outstanding), queued plus in service. By Little's law that is
//     offered rate times service time, the pool the stream needs. The rule
//     has no memory, so as the default the refill gate re-evaluates it on a
//     fresh sample (GateOn) and a surplus worker parks without waiting for
//     the next tick.
//   - QueueSizeStrategy: the paper's ±1 reference; grow while the
//     outstanding tasks rise above a floor, shrink while they fall.
//   - IdleTimeStrategy: the paper's dyn_auto_redis policy; shrink when the
//     admitted workers' mean idle time (IdleMs) exceeds the reactivation
//     threshold, grow when they are busy.
package autoscale

import (
	"sync"
	"time"
)

// Config parameterizes a Controller (Algorithm 1's constructor parameters).
type Config struct {
	// MaxPoolSize is the total number of worker processes.
	MaxPoolSize int
	// InitialActive is the starting active size; 0 means MaxPoolSize/2 (the
	// paper's default).
	InitialActive int
	// MinActive floors shrinking; 0 means 1.
	MinActive int
	// Interval is the monitor sampling period; 0 means 2ms (scaled-down
	// counterpart of the paper's monitoring cadence).
	Interval time.Duration
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxPoolSize < 1 {
		c.MaxPoolSize = 1
	}
	if c.InitialActive <= 0 {
		c.InitialActive = c.MaxPoolSize / 2
	}
	if c.MinActive <= 0 {
		c.MinActive = 1
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Millisecond
	}
	c.InitialActive = c.clamp(c.InitialActive)
	return c
}

// clamp bounds a size to [MinActive, MaxPoolSize].
func (c Config) clamp(n int) int { return min(max(n, c.MinActive), c.MaxPoolSize) }

// Signal names the workload metric a Strategy decides on.
type Signal int

const (
	// Outstanding is the transport's pending task count: queued plus in
	// service (runtime.Transport.Pending).
	Outstanding Signal = iota
	// IdleMs is the mean time, in milliseconds, since each admitted pool
	// worker's last non-empty pull, the quantity Redis reports as a
	// consumer's "inactive" time.
	IdleMs
)

// Strategy decides the scaling delta from a metric sample ("when to scale"
// and "how to scale").
type Strategy interface {
	// Name identifies the strategy in traces.
	Name() string
	// Signal names the metric the engine samples for Decide.
	Signal() Signal
	// Decide maps the latest metric sample and the current active size to a
	// signed size delta; the controller clamps the result to its bounds.
	Decide(sample float64, active int) int
}

// DemandStrategy is the default policy of every auto mapping: the pool's
// target is the number of outstanding tasks, reached in one step.
type DemandStrategy struct{}

// Name implements Strategy.
func (DemandStrategy) Name() string { return "demand" }

// Signal implements Strategy.
func (DemandStrategy) Signal() Signal { return Outstanding }

// Decide implements Strategy; the sample is the outstanding task count.
func (DemandStrategy) Decide(outstanding float64, active int) int { return int(outstanding) - active }

// QueueSizeStrategy is the paper's dyn_auto_multi policy, kept as the
// Algorithm 1 reference: scale up by one while the outstanding tasks are
// growing and above Floor, scale down by one while they shrink or are few.
type QueueSizeStrategy struct {
	// Floor is the "minimum threshold [that] prevents unnecessary scaling
	// during low demand".
	Floor float64

	prev    float64
	started bool
}

// Name implements Strategy.
func (s *QueueSizeStrategy) Name() string { return "queue-size" }

// Signal implements Strategy.
func (s *QueueSizeStrategy) Signal() Signal { return Outstanding }

// Decide implements Strategy.
func (s *QueueSizeStrategy) Decide(queueSize float64, _ int) int {
	defer func() { s.prev = queueSize; s.started = true }()
	if !s.started {
		return 0
	}
	switch {
	case queueSize > s.prev && queueSize >= s.Floor:
		return +1
	case queueSize < s.prev || queueSize < s.Floor:
		return -1
	default:
		return 0
	}
}

// IdleTimeStrategy is the paper's dyn_auto_redis policy: when the mean idle
// time of the admitted workers exceeds Threshold (the time worth a
// reactivation and redeployment), deactivate a process; otherwise activate
// one.
type IdleTimeStrategy struct {
	// Threshold is the average idle duration above which a process is
	// logically deactivated.
	Threshold time.Duration
}

// Name implements Strategy.
func (s *IdleTimeStrategy) Name() string { return "idle-time" }

// Signal implements Strategy.
func (s *IdleTimeStrategy) Signal() Signal { return IdleMs }

// Decide implements Strategy; the sample is the average idle time in
// milliseconds.
func (s *IdleTimeStrategy) Decide(avgIdleMs float64, _ int) int {
	if time.Duration(avgIdleMs*float64(time.Millisecond)) > s.Threshold {
		return -1
	}
	return +1
}

// TracePoint is one record of the auto-scaler's behaviour, the raw data of
// the paper's Figure 13.
type TracePoint struct {
	// Iteration counts monitor evaluations with changed metrics.
	Iteration int
	// Active is the active size after the decision.
	Active int
	// Metric is the sampled monitor value: the strategy's Signal.
	Metric float64
}

// Trace collects TracePoints; safe for concurrent use.
type Trace struct {
	mu     sync.Mutex
	points []TracePoint
}

// Record appends a point.
func (t *Trace) Record(p TracePoint) {
	t.mu.Lock()
	t.points = append(t.points, p)
	t.mu.Unlock()
}

// Points returns a snapshot of the recorded points.
func (t *Trace) Points() []TracePoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TracePoint(nil), t.points...)
}

// Stats is a snapshot of the pool: the active size, the joined workers
// running and parked, and the cumulative resizes in each direction.
type Stats struct {
	Active, Running, Parked int
	Grows, Shrinks          int64
}

// Controller is Algorithm 1's Auto_scaler: it owns active_size and lets
// surplus worker goroutines park.
type Controller struct {
	cfg      Config
	strategy Strategy
	trace    *Trace
	probe    func() float64  // see GateOn
	resume   []chan struct{} // per worker, capacity 1: its readmission
	done     chan struct{}   // closed by Terminate
	stop     sync.Once

	mu         sync.Mutex
	stats      Stats
	running    []bool // by worker: joined and not parked
	parked     []bool
	onScale    func(from, to int)
	iter       int
	lastMetric float64
	hasMetric  bool
}

// NewController builds a controller. trace may be nil.
func NewController(cfg Config, strategy Strategy, trace *Trace) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, strategy: strategy, trace: trace, done: make(chan struct{}),
		resume: make([]chan struct{}, cfg.MaxPoolSize), running: make([]bool, cfg.MaxPoolSize), parked: make([]bool, cfg.MaxPoolSize)}
	for w := range c.resume {
		c.resume[w] = make(chan struct{}, 1)
	}
	c.stats.Active = cfg.InitialActive
	return c
}

// Config returns the effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// GateOn makes Gate re-evaluate the strategy on a fresh probe sample. Call it
// before any worker or monitor starts, and only for a strategy whose Decide
// is a pure function of its arguments (DemandStrategy); strategies with
// memory are stepped by the tick alone.
func (c *Controller) GateOn(probe func() float64) { c.probe = probe }

// OnScale registers fn to be called, outside the controller's lock, after
// every change of the active size.
func (c *Controller) OnScale(fn func(from, to int)) {
	c.mu.Lock()
	c.onScale = fn
	c.mu.Unlock()
}

// Stats returns a snapshot of the pool.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Admitted reports whether worker w has joined and is not parked.
func (c *Controller) Admitted(w int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return w < len(c.running) && c.running[w]
}

// resize sets the active size (Algorithm 1's grow and shrink procedures in
// one) and readmits as many parked workers as now fit, lowest index first.
// Callers hold mu and run the returned OnScale call after releasing it.
func (c *Controller) resize(target int) (notify func()) {
	from, to := c.stats.Active, c.cfg.clamp(target)
	if to == from {
		return func() {}
	}
	c.stats.Active = to
	if to > from {
		c.stats.Grows++
	} else {
		c.stats.Shrinks++
	}
	for w := 0; c.stats.Parked > 0 && c.stats.Running < to; w++ {
		if c.parked[w] {
			c.parked[w], c.running[w] = false, true
			c.stats.Parked--
			c.stats.Running++
			c.resume[w] <- struct{}{}
		}
	}
	if fn := c.onScale; fn != nil {
		return func() { fn(from, to) }
	}
	return func() {}
}

// Step feeds one monitor sample through the strategy (Algorithm 1's
// auto_scale procedure) in one critical section and records a trace point
// when the metric changed.
func (c *Controller) Step(sample float64) {
	c.mu.Lock()
	notify := c.resize(c.stats.Active + c.strategy.Decide(sample, c.stats.Active))
	if !c.hasMetric || sample != c.lastMetric {
		c.iter++
		if c.trace != nil {
			c.trace.Record(TracePoint{Iteration: c.iter, Active: c.stats.Active, Metric: sample})
		}
	}
	c.lastMetric, c.hasMetric = sample, true
	c.mu.Unlock()
	notify()
}

// Gate is pool worker w's refill check: its first call joins the worker, and
// every call reports whether the worker must park (the idle, non-accounted
// standby state) because more workers run than the pool admits. Under GateOn
// the limit is the strategy's target on a fresh sample: the active size
// shrinks to it at once, while growth beyond it waits for the tick but
// already shields this worker. A worker told to park must call Admit.
func (c *Controller) Gate(w int) (park bool) {
	var sample float64
	if c.probe != nil {
		sample = c.probe()
	}
	c.mu.Lock()
	if !c.running[w] && !c.parked[w] {
		c.running[w] = true
		c.stats.Running++
	}
	notify := func() {}
	limit := c.stats.Active
	if c.probe != nil {
		limit = c.cfg.clamp(limit + c.strategy.Decide(sample, limit))
		if limit < c.stats.Active {
			notify = c.resize(limit)
		}
	}
	if park = c.stats.Running > limit; park {
		c.running[w], c.parked[w] = false, true
		c.stats.Running--
		c.stats.Parked++
	}
	c.mu.Unlock()
	notify()
	return park
}

// Admit blocks a parked worker until the controller readmits it. It returns
// false when the controller has been terminated, true when the worker is
// active again. The caller is responsible for process-time accounting around
// the call.
func (c *Controller) Admit(w int) bool {
	select {
	case <-c.resume[w]:
		return true
	case <-c.done:
		return false
	}
}

// Terminate releases all parked workers and stops the monitor loop.
func (c *Controller) Terminate() { c.stop.Do(func() { close(c.done) }) }

// RunMonitor samples monitor every Interval and feeds the controller until
// Terminate is called. Call it in its own goroutine.
func (c *Controller) RunMonitor(monitor func() float64) {
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
			c.Step(monitor())
		}
	}
}
