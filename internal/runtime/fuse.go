package runtime

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/faultinject"
	"repro/internal/graph"
)

// Operator fusion: when a pool worker runs Process for a PE that emits on a
// fusable edge, the router calls this worker's own copy of the destination
// directly instead of pushing a task — the encode, push trip, pull trip,
// decode and ack of one transport hop become one function call. Every pool
// worker already holds a private copy of every pooled PE (the paper's
// cp_graph ← DeepCopy(graph)), so the rewrite moves no state and changes no
// output; what it gives up is spreading the destination's work across the
// pool, which is why it is priced.
//
// The rule has a static side and a cost side. Statically (fusable) the edge
// must be a shuffle out of a pooled non-source PE into a pooled PE that is
// neither Stateful nor managed-state and has no Final. On the cost side each
// worker keeps the mean self service time of the destination on its own
// copy and compares it with the per-task price of the hop a fused call
// saves: one push and one pull. Both are one round trip moving the same
// tasks, so the hop is priced at twice the per-task cost of a push as the
// worker's emit sizer models it — the operation's fixed cost shared over the
// current window, plus the marginal cost. The pull sizer stays out of the
// price because its durations include the blocking wait for the first task.
// Only the adaptive sizers measure a hop, so the in-process planners
// (Config.AdaptiveBatching off) never fuse, and a worker that has not pushed
// yet prices the hop at zero and fuses nothing. An edge starts unfused; at
// every refill boundary, never mid-task, it is fused exactly while the
// measured mean is below the price.
//
// A fused call is a nested execution: it happens only inside a Process (never
// in Init, Generate or Final, and never while the batcher holds a fenced
// Final's output), it stamps its child with the same identity the unfused
// task would carry, and it counts in Report.Tasks, the worker's task counter,
// the destination's flow-ledger row and the tracer exactly like a delivered
// execution. Exactly-once is inherited from the enclosing task's ack: a
// replay re-runs the parent, which re-runs the fused child with identical
// identities, so downstream fences see the same grandchildren either way.

// fusable is the static half of the fusion rule for edge e under plan.
func fusable(g *graph.Graph, plan Plan, e *graph.Edge) bool {
	if e.Grouping.Kind != graph.Shuffle || plan.Instances[e.From] != 0 || plan.Instances[e.To] != 0 {
		return false
	}
	if g.Node(e.From).IsSource() {
		return false
	}
	to := g.Node(e.To)
	if to.Stateful || to.HasManagedState() {
		return false
	}
	_, final := to.Prototype.(core.Finalizer)
	return !final
}

// observeService adds one self service time of c (ns) to its mean.
func (c *peCopy) observeService(ns int64) {
	c.svcNs += ns
	c.runs++
}

// decideFusion is the cost half of the rule, run at a refill boundary for
// every fusion destination on worker w. It also marks each destination's
// next fused call to be timed: one sample per refill keeps the mean fed
// without reading the clock around every fused call. Each switch between
// fused and delivered is journaled with the hop price it was decided at.
func decideFusion(dsts []*peCopy, emit *BatchSizer, d *diagnosis.Diag, w int) {
	hop := 2 * int64(emit.taskCost())
	for _, c := range dsts {
		fused := c.svcNs < c.runs*hop
		if fused != c.fused && d != nil {
			d.Log(diagnosis.EvFuse, w, c.pe.Name(), fmt.Sprintf("fused=%v service %v hop %v",
				fused, time.Duration(c.svcNs/max(c.runs, 1)), time.Duration(hop)), hop)
		}
		c.fused = fused
		c.sample = true
	}
}

// runFused executes t on the worker's copy c inside the current execution.
// The parent's stamping state is saved and restored around a nested begin,
// so the child stamps its own emissions and the parent's resume where they
// left off. The call is timed only when something consumes the time — a
// traced task, c's flow-ledger row, an enclosing timed execution (whose self
// time subtracts inlineNs, to which a timed call adds its wall time), or the
// per-refill sample of c's mean service time.
func (r *router) runFused(c *peCopy, t Task) error {
	parent, parentGen, parentInline, parentTiming := r.cur, r.gen, r.inlineNs, r.timing
	r.begin(t)
	r.inlineNs = 0
	r.tasks.Add(1)
	if r.wm != nil {
		r.wm.Tasks.Inc()
		r.wm.Fused.Inc()
	}
	var err error
	if r.timing || c.sample || c.flow != nil || (r.tracer != nil && t.TraceAt != 0) {
		c.sample, r.timing = false, true
		start := time.Now().UnixNano()
		err = c.pe.Process(c.ctx, t.Port, t.Value)
		end := time.Now().UnixNano()
		c.observeService(end - start - r.inlineNs)
		r.recordExec(c, t, start, start, end)
		parentInline += end - start
	} else {
		err = c.pe.Process(c.ctx, t.Port, t.Value)
	}
	r.cur, r.gen, r.inlineNs, r.timing = parent, parentGen, parentInline, parentTiming
	if err != nil {
		return fmt.Errorf("PE %s: %w", t.PE, err)
	}
	return faultinject.Fire(faultinject.ProbeFusedCall)
}

// recordExec books one execution of t on c — delivered or fused — in the
// tracer and the flow ledger. Both get self time: the span ends
// r.inlineNs early, the wall time of the fused calls the execution made,
// which have spans and ledger rows of their own. A traced task's emit→start
// wait is its queue wait — for a fused call, only the clock reads between
// the stamp and the call.
func (r *router) recordExec(c *peCopy, t Task, pulledAt, start, end int64) {
	end -= r.inlineNs
	if r.tracer != nil && t.TraceAt != 0 {
		r.tracer.RecordExec(t.Src, t.Seq, t.PE, r.worker, t.TraceAt, pulledAt, start, end)
	}
	if c.flow != nil {
		c.flow.ObserveExec(start, end, diagnosis.ValueBytes(t.Value), t.Port == "" && !t.Finalize)
		if t.TraceAt > 0 {
			c.flow.ObserveQueueWait(start - t.TraceAt)
		}
	}
}
