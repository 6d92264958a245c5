package telemetry

import "time"

// WorkerSnapshot is the JSON view of one worker shard (or, with Worker = -1,
// the bucket-wise merge of every shard).
type WorkerSnapshot struct {
	Worker    int               `json:"worker"`
	Tasks     int64             `json:"tasks"`
	Fused     int64             `json:"fused"`
	IdlePolls int64             `json:"idle_polls"`
	Prefetch  int64             `json:"prefetch"`
	Pull      HistogramSnapshot `json:"pull"`
	Ack       HistogramSnapshot `json:"ack"`
	EmitFlush HistogramSnapshot `json:"emit_flush"`
	PullBatch HistogramSnapshot `json:"pull_batch"`
	EmitBatch HistogramSnapshot `json:"emit_batch"`
}

// StateSnapshot is the JSON view of the state-operation metrics. Ops holds
// only operations that were actually observed.
type StateSnapshot struct {
	Ops        map[string]HistogramSnapshot `json:"ops,omitempty"`
	FenceDrops int64                        `json:"fence_drops"`
}

// Snapshot is the JSON-marshalable view of a whole Registry at one instant —
// the payload of the /metrics endpoint and of d4pbench's embedded telemetry.
type Snapshot struct {
	At time.Time `json:"at"`
	// Workers is the merged view across all worker shards (Worker == -1).
	Workers WorkerSnapshot `json:"workers"`
	// PerWorker holds each shard, indexed by worker slot.
	PerWorker []WorkerSnapshot `json:"per_worker,omitempty"`
	// Gauges holds every registered gauge source's samples as "source.key".
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// State is present once any state operation was observed.
	State *StateSnapshot `json:"state,omitempty"`
	// Traces are the highest-value assembled task traces; TraceEvents is the
	// total number of trace events ever recorded (ring evictions included).
	Traces      []Trace `json:"traces,omitempty"`
	TraceEvents int64   `json:"trace_events,omitempty"`
}

// snapshotTraces caps how many assembled traces a snapshot embeds.
const snapshotTraces = 8

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot { return r.snapshot(true) }

func (r *Registry) snapshot(withTraces bool) Snapshot {
	r.mu.Lock()
	workers := append([]*WorkerMetrics(nil), r.workers...)
	r.mu.Unlock()

	snap := Snapshot{At: time.Now()}
	merged := WorkerSnapshot{Worker: -1}
	var pulls, ackHs, flushes, pullSizes, emitSizes []*Histogram
	for w, wm := range workers {
		ws := WorkerSnapshot{
			Worker:    w,
			Tasks:     wm.Tasks.Load(),
			Fused:     wm.Fused.Load(),
			IdlePolls: wm.IdlePolls.Load(),
			Prefetch:  wm.Prefetch.Load(),
			Pull:      wm.Pull.Snapshot(),
			Ack:       wm.Ack.Snapshot(),
			EmitFlush: wm.EmitFlush.Snapshot(),
			PullBatch: wm.PullBatch.Snapshot(),
			EmitBatch: wm.EmitBatch.Snapshot(),
		}
		snap.PerWorker = append(snap.PerWorker, ws)
		merged.Tasks += ws.Tasks
		merged.Fused += ws.Fused
		merged.IdlePolls += ws.IdlePolls
		merged.Prefetch += ws.Prefetch
		pulls = append(pulls, wm.Pull)
		ackHs = append(ackHs, wm.Ack)
		flushes = append(flushes, wm.EmitFlush)
		pullSizes = append(pullSizes, wm.PullBatch)
		emitSizes = append(emitSizes, wm.EmitBatch)
	}
	if len(workers) > 0 {
		merged.Pull = mergeHistograms(pulls...)
		merged.Ack = mergeHistograms(ackHs...)
		merged.EmitFlush = mergeHistograms(flushes...)
		merged.PullBatch = mergeHistograms(pullSizes...)
		merged.EmitBatch = mergeHistograms(emitSizes...)
	}
	snap.Workers = merged

	// Gauge sampling may hit the transport (a Redis round trip); still a cold
	// path — only Snapshot/RecordFlight callers pay it.
	r.mu.Lock()
	snap.Gauges = r.sampleGauges()
	r.mu.Unlock()
	if len(snap.Gauges) == 0 {
		snap.Gauges = nil
	}

	ops := map[string]HistogramSnapshot{}
	for name, h := range map[string]*Histogram{
		"get": r.state.Get, "put": r.state.Put, "add": r.state.Add,
		"snapshot": r.state.Snapshot, "restore": r.state.Restore,
	} {
		if hs := h.Snapshot(); hs.Count > 0 {
			ops[name] = hs
		}
	}
	if len(ops) > 0 || r.state.FenceDrops.Load() > 0 {
		snap.State = &StateSnapshot{Ops: ops, FenceDrops: r.state.FenceDrops.Load()}
	}

	if withTraces && r.tracer != nil {
		snap.Traces = r.tracer.Assemble(snapshotTraces)
		_, snap.TraceEvents = r.tracer.Events()
	}
	return snap
}
