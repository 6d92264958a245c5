// Package diagnosis is the bottleneck-attribution layer on top of
// internal/telemetry: it answers "which PE or edge is the wall, and why —
// service time, queue wait, stragglers, or replay churn?".
//
// It bundles four instruments: a per-PE / per-edge flow ledger fed by the
// worker loop and router (tasks, bytes, fence drops, replays, service-time
// and sampled queue-wait histograms), critical-path analysis over the
// tracer's assembled source→sink paths, a bounded sequence-numbered run-event
// journal of lifecycle moments, and a straggler detector over the
// flight-recorder ring. Diagnose fuses them into a Report whose Verdict names
// the bottleneck PE, the dominant stage, its utilization, and the
// offered-rate ceiling it implies. Its consumers are the benchmark's traced
// pass (`go run ./benchmark` prices it as diagnosis.overhead_share), the
// report `d4prun` prints and `d4pbench -json` embeds, and the /diagnosis and
// /journal endpoints of a live run.
//
// Like telemetry, the package imports only the standard library plus
// telemetry itself, so every layer above (state, runtime, transports,
// mappings, harness) can feed it without import cycles. All hot-path entry
// points are nil-safe: a nil *Diag (or nil ledger/journal inside one) costs a
// pointer test and nothing else.
package diagnosis

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// Config sizes a Diag. The zero value gives useful defaults.
type Config struct {
	// JournalRing bounds the run-event journal; 0 means DefaultJournalRing.
	JournalRing int
	// Straggler tunes the flight-recorder straggler detector.
	Straggler StragglerConfig
}

// Diag is one diagnosis plane: the flow ledger plus the run-event journal.
// Like a telemetry.Registry it may outlive a single run — the harness shares
// one across repetitions, in which case ledger rows accumulate.
type Diag struct {
	Flow    *FlowLedger
	Journal *Journal

	straggler StragglerConfig
}

// New creates a diagnosis plane.
func New(cfg Config) *Diag {
	return &Diag{Flow: NewFlowLedger(), Journal: NewJournal(cfg.JournalRing), straggler: cfg.Straggler}
}

// PE resolves the flow-ledger row for a PE. Nil-safe: returns nil on a nil
// Diag, and every PEFlow method is in turn nil-safe.
func (d *Diag) PE(name string) *PEFlow {
	if d == nil {
		return nil
	}
	return d.Flow.PE(name)
}

// Edge resolves the flow-ledger row for an edge key (see EdgeName). Nil-safe.
func (d *Diag) Edge(name string) *EdgeFlow {
	if d == nil {
		return nil
	}
	return d.Flow.Edge(name)
}

// Log appends a journal event. Nil-safe.
func (d *Diag) Log(kind string, worker int, pe, detail string, n int64) {
	if d == nil {
		return
	}
	d.Journal.Append(kind, worker, pe, detail, n)
}

// Verdict names the bottleneck and the stage that makes it one.
type Verdict struct {
	// Bottleneck is the PE the evidence points at; empty when the run produced
	// no attributable service time.
	Bottleneck string `json:"bottleneck,omitempty"`
	// Stage is what dominates at the bottleneck: "service" (the PE itself is
	// the wall), "queue_wait" (work outruns its capacity — under-provisioned),
	// or "replay" (reclaim/fence churn is eating it).
	Stage string `json:"stage,omitempty"`
	// Utilization is the bottleneck's busy share of its worker slots over its
	// active window.
	Utilization float64 `json:"utilization,omitempty"`
	// CeilingPerSec is the offered-rate ceiling the bottleneck's mean service
	// time and server count imply (tasks/sec through that PE).
	CeilingPerSec float64 `json:"ceiling_per_sec,omitempty"`
	// Detail is a one-line human rendering of the evidence.
	Detail string `json:"detail,omitempty"`
}

// Report is the full diagnosis payload: verdict, blame ranking, flow ledger,
// decomposed paths, stragglers, and the journal's high-water mark. It is the
// /diagnosis endpoint's body and what `d4pbench -json` result files embed.
type Report struct {
	At            time.Time    `json:"at"`
	Verdict       Verdict      `json:"verdict"`
	Flow          FlowSnapshot `json:"flow"`
	Paths         PathAnalysis `json:"paths"`
	Stragglers    []Straggler  `json:"stragglers,omitempty"`
	JournalEvents uint64       `json:"journal_events"`
}

// Diagnose fuses the ledger, the registry's traces and flights, and the
// journal into a Report. reg may be nil, in which case the report is
// ledger-only (no path decomposition, no straggler scan).
func (d *Diag) Diagnose(reg *telemetry.Registry) Report {
	rep := Report{At: time.Now()}
	if d == nil {
		return rep
	}
	rep.Flow = d.Flow.Snapshot()
	rep.JournalEvents = d.Journal.Total()
	if reg != nil {
		if tr := reg.Tracer(); tr != nil {
			rep.Paths = AnalyzePaths(tr.Assemble(64))
		}
		rep.Stragglers = DetectStragglers(reg.Flights(), d.straggler)
	}
	rep.Verdict = verdict(rep.Flow, rep.Paths, rep.Stragglers)
	return rep
}

// replayStageShare is the replay fraction of a PE's deliveries above which
// the verdict blames replay churn rather than raw capacity.
const replayStageShare = 0.25

// verdict picks the bottleneck PE by ledger utilization (falling back to the
// trace blame ranking when utilization is unavailable) and decides which
// stage dominates there. Sources are excluded — a pacing Generate is busy by
// construction, not a wall.
func verdict(flow FlowSnapshot, paths PathAnalysis, stragglers []Straggler) Verdict {
	var v Verdict
	var pick *PEFlowSnapshot
	for i := range flow.PEs {
		pe := &flow.PEs[i]
		if pe.Source || pe.Service.Count == 0 {
			continue
		}
		if pick == nil || pe.Utilization > pick.Utilization {
			pick = pe
		}
	}
	if pick == nil {
		// No ledger service data (e.g. analysis over traces alone): fall back
		// to the heaviest PE in the blame ranking.
		for _, b := range paths.Blame {
			v.Bottleneck = b.PE
			v.Stage = "service"
			if b.QueueNs > b.SvcNs {
				v.Stage = "queue_wait"
			}
			v.Detail = fmt.Sprintf("%s carries %.0f%% of sampled path time (trace-only evidence)",
				b.PE, 100*b.Share)
			return v
		}
		return v
	}
	v.Bottleneck = pick.PE
	v.Utilization = pick.Utilization
	v.CeilingPerSec = pick.CeilingPerSec

	// Stage: replay churn first, then queue-wait vs service by which segment
	// dominates at the bottleneck (trace blame when available, the ledger's
	// sampled queue-wait histogram otherwise).
	queueNs, svcNs := float64(pick.QueueWait.Mean), float64(pick.Service.Mean)
	for _, b := range paths.Blame {
		if b.PE == pick.PE && b.Hops > 0 {
			queueNs = float64(b.QueueNs) / float64(b.Hops)
			svcNs = float64(b.SvcNs) / float64(b.Hops)
			break
		}
	}
	switch {
	case pick.TasksIn > 0 && float64(pick.Replays+pick.FenceDrops) > replayStageShare*float64(pick.TasksIn):
		v.Stage = "replay"
		v.Detail = fmt.Sprintf("%s: %d replays + %d fence drops over %d deliveries — recovery churn dominates",
			pick.PE, pick.Replays, pick.FenceDrops, pick.TasksIn)
	case queueNs > svcNs:
		v.Stage = "queue_wait"
		v.Detail = fmt.Sprintf("%s: tasks wait %s queued vs %s service (util %.0f%%, ceiling ≈%.0f/s) — under-provisioned",
			pick.PE, time.Duration(queueNs), time.Duration(svcNs), 100*pick.Utilization, pick.CeilingPerSec)
	default:
		v.Stage = "service"
		v.Detail = fmt.Sprintf("%s: service %s/task at %.0f%% utilization caps offered rate at ≈%.0f/s",
			pick.PE, time.Duration(svcNs), 100*pick.Utilization, pick.CeilingPerSec)
	}
	if len(stragglers) > 0 {
		v.Detail += fmt.Sprintf("; %d straggler worker(s) flagged", len(stragglers))
	}
	return v
}
