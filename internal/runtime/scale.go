package runtime

import (
	"sync/atomic"
	"time"

	"repro/internal/autoscale"
)

// autoScaler builds and starts the run's Algorithm 1 controller, the one
// place an auto mapping's controller is wired, whatever its transport. It
// returns nil unless Config.AutoScale is set and the plan's pool has more
// than one worker to scale; pinned workers are never scaled.
//
// The strategy is Options.Strategy, or DemandStrategy when that is nil, and
// the monitor samples the signal the strategy names every tick:
//
//   - Outstanding: Transport.Pending(), where a failed read repeats the last
//     good one. On a hybrid plan it also counts the tasks queued for pinned
//     workers, so the stateless pool can be sized above its own demand.
//   - IdleMs: the mean time since each admitted pool worker's last non-empty
//     pull, which the workers stamp in their loop (see idleClock).
//
// The default has no memory, so the refill gate also re-evaluates it on a
// fresh sample (GateOn); a strategy passed in Options.Strategy is stepped by
// the tick alone. The controller keeps autoscale.Config's defaults for the
// pool: half of it active at the start, a floor of one, a 2 ms tick. The
// caller terminates the controller.
func (r *run) autoScaler() *autoscale.Controller {
	pool := r.cfg.Plan.Pool
	if !r.cfg.AutoScale || pool < 2 {
		return nil
	}
	strategy := r.opts.Strategy
	if strategy == nil {
		strategy = autoscale.DemandStrategy{}
	}
	ctrl := autoscale.NewController(autoscale.Config{MaxPoolSize: pool}, strategy, r.opts.Trace)
	var last atomic.Int64 // the last good Pending() read
	sample := func() float64 {
		if n, err := r.cfg.Transport.Pending(); err == nil {
			last.Store(n)
		}
		return float64(last.Load())
	}
	if strategy.Signal() == autoscale.IdleMs {
		r.idle = newIdleClock(pool)
		sample = func() float64 { return r.idle.meanMs(ctrl.Admitted) }
	}
	if r.opts.Strategy == nil {
		ctrl.GateOn(sample)
	}
	go ctrl.RunMonitor(sample)
	return ctrl
}

// idleClock is the IdleMs signal's source: the time of each pool worker's
// last non-empty pull, which the worker stamps itself, so reading the signal
// costs no round trip on any transport.
type idleClock struct {
	epoch time.Time
	last  []atomic.Int64 // by pool worker: time since epoch, in ns
}

func newIdleClock(pool int) *idleClock {
	return &idleClock{epoch: time.Now(), last: make([]atomic.Int64, pool)}
}

// stamp records that pool worker w just pulled work (or joined the pool).
func (c *idleClock) stamp(w int) { c.last[w].Store(int64(time.Since(c.epoch))) }

// meanMs is the mean time since the last stamp of the workers admitted
// reports, in milliseconds; 0 when none is admitted.
func (c *idleClock) meanMs(admitted func(w int) bool) float64 {
	now := int64(time.Since(c.epoch))
	var sum, n int64
	for w := range c.last {
		if admitted(w) {
			sum += now - c.last[w].Load()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / float64(time.Millisecond)
}
