package runtime

import "time"

// Bounds and amortization budget of the adaptive batch sizer.
const (
	autoBatchMin = 1
	// autoBatchMax is a backstop bound on the window. The two-term cost
	// model normally stops growth at the amortization knee well before it;
	// the cap only matters while the model is still warming up or when the
	// observed costs are so large that even huge windows would amortize.
	autoBatchMax = 128
	// autoBatchBudget is the per-task share of a transport operation's
	// *fixed* cost the sizer is willing to pay: the window grows while
	// fixed-cost-per-task (F / window) exceeds the budget. 50ns lands the
	// in-process queue (≈2µs fixed per op) near a 64-task window and drives
	// the Redis transport (≈100µs fixed per round trip) to the cap.
	autoBatchBudget = 50 * time.Nanosecond
	// autoBatchAlpha is the EWMA smoothing factor of the cost moments.
	autoBatchAlpha = 0.25
)

// BatchSizer adaptively sizes one worker's batch window (emit or pull) from
// the transport's observed operation cost — the runtime's implementation of
// Config.AdaptiveBatching.
//
// It fits the two-term cost model the single-EWMA sizer approximated:
//
//	cost(n) ≈ fixed + n · marginal
//
// via an online least-squares regression over exponentially-weighted moments
// of (n, cost) observations. Only the fixed term is amortizable — the
// marginal per-task cost (decode, PEL bookkeeping, per-element lock work) is
// paid once per task at any window size — so the rules are:
//
//   - grow (double, up to the backstop cap) while the window comes back full
//     and the estimated fixed cost still exceeds budget × window: growth
//     stops exactly at the amortization knee, instead of drifting to the cap
//     on transports whose cost is linear in the batch size;
//   - shrink (halve, down to 1) when an operation moves at most a quarter of
//     the window — sparse traffic gets small windows and low latency.
//
// Operations that moved nothing (pull timeouts) still cost a full round
// trip, so they are not ignored: they drive the shrink rule — bursty
// traffic with idle gaps between bursts returns to small windows — but they
// are kept out of the cost moments, whose durations are dominated by the
// blocking wait rather than by transport cost. The sizer is owned by a
// single worker goroutine and needs no locking.
type BatchSizer struct {
	// OnResize, when set, is called with (old, new) whenever the window
	// changes — the diagnosis journal's sizer-resize feed. Resizes are
	// log-bounded (doubling/halving between 1 and the cap), so the callback
	// is cold. Set it before the first Observe; the sizer is single-owner.
	OnResize func(oldSize, newSize int)

	size int
	// Exponentially-weighted moments of the (tasks, duration) stream, in
	// tasks and nanoseconds: E[n], E[d], E[n·d], E[n²].
	mN, mD, mND, mN2 float64
	warm             bool
	// Last identifiable fit of d ≈ fixed + n·marginal. The split is only
	// estimable while n varies; once the window stabilizes the moments
	// collapse onto a single (n, d) point, so the fit is frozen here
	// instead of being recomputed — recomputing would re-attribute the
	// whole (linear) cost to the fixed term and resume growing past the
	// knee. Window changes re-introduce variance and unfreeze it.
	fixed, marginal float64
	fitted          bool
}

// NewBatchSizer starts a sizer at the minimum window.
func NewBatchSizer() *BatchSizer {
	return &BatchSizer{size: autoBatchMin}
}

// Next is the window to request for the next operation.
func (s *BatchSizer) Next() int { return s.size }

// FixedCost is the model's current estimate of an operation's amortizable
// fixed cost. Before any observation it is zero.
func (s *BatchSizer) FixedCost() time.Duration { return time.Duration(s.fixed) }

// MarginalCost is the model's current estimate of the per-task cost.
func (s *BatchSizer) MarginalCost() time.Duration { return time.Duration(s.marginal) }

// taskCost is the model's per-task cost of one operation at the current
// window: the task's share of the fixed cost plus the marginal cost.
func (s *BatchSizer) taskCost() time.Duration {
	return s.FixedCost()/time.Duration(s.size) + s.MarginalCost()
}

// refit updates the least-squares fit of d ≈ fixed + n·marginal from the
// current moments. While the batch size still varies, the slope is
// identifiable and both terms are re-estimated; at a stable window the
// variance degenerates and the last fit is kept (see the field comment).
// Before any fit exists, the whole cost is attributed to the fixed term —
// the conservative choice, matching the previous single-EWMA behaviour
// until window changes add variance.
func (s *BatchSizer) refit() {
	variance := s.mN2 - s.mN*s.mN
	if variance > 1e-6 {
		m := (s.mND - s.mN*s.mD) / variance
		if m < 0 {
			m = 0
		}
		s.marginal = m
		s.fitted = true
	} else if !s.fitted {
		s.marginal = 0
	} else {
		return
	}
	s.fixed = s.mD - s.marginal*s.mN
	if s.fixed < 0 {
		s.fixed = 0
	}
}

// Observe feeds one transport operation that moved n tasks in d. Zero-task
// operations (timeouts) contribute no cost sample but count as underfull
// deliveries for the shrink rule.
func (s *BatchSizer) Observe(d time.Duration, n int) {
	old := s.size
	if n <= 0 {
		s.size = max(s.size/2, autoBatchMin)
		s.notifyResize(old)
		return
	}
	fn, fd := float64(n), float64(d)
	if !s.warm {
		s.mN, s.mD, s.mND, s.mN2 = fn, fd, fn*fd, fn*fn
		s.warm = true
	} else {
		s.mN += autoBatchAlpha * (fn - s.mN)
		s.mD += autoBatchAlpha * (fd - s.mD)
		s.mND += autoBatchAlpha * (fn*fd - s.mND)
		s.mN2 += autoBatchAlpha * (fn*fn - s.mN2)
	}
	s.refit()
	switch {
	case n >= s.size && s.fixed > float64(s.size)*float64(autoBatchBudget):
		s.size = min(s.size*2, autoBatchMax)
	case n <= s.size/4:
		s.size = max(s.size/2, autoBatchMin)
	}
	s.notifyResize(old)
}

func (s *BatchSizer) notifyResize(old int) {
	if s.OnResize != nil && s.size != old {
		s.OnResize(old, s.size)
	}
}
