package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/autoscale"
	"repro/internal/diagnosis"
	"repro/internal/telemetry"
)

// Span sampling: one event in traceSampleEvery, or fewer when more than
// maxSampledEvents of one run would record spans, so a trace file (two runs,
// up to seven spans an event) stays under 2 MB.
const (
	traceSampleEvery = 16
	maxSampledEvents = 1500
)

func sampleEvery(n int) int {
	return max(traceSampleEvery, (n+maxSampledEvents-1)/maxSampledEvents)
}

// traceFile is the schema of benchmark/out/trace-<workload>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Batch    tracedSpans `json:"batch"`
	Paced    tracedSpans `json:"paced"`
}

type tracedSpans struct {
	Events      int    `json:"events"`
	SampleEvery int    `json:"sample_every"`
	Spans       []span `json:"spans"`
}

// spanStats reduces one run's spans to the per-layer numbers read from them.
type spanStats struct {
	emitUs, stateUs, serviceSelfUs []float64 // sorted
	hopMs                          []float64 // sorted
}

func reduceSpans(spans []span) spanStats {
	var st spanStats
	// children[ev,pe] is the time a service span's state and emit children
	// cover; a service span's self time is its duration minus that.
	type evPE struct {
		ev int
		pe string
	}
	children := map[evPE]int64{}
	for _, s := range spans {
		d := s.End - s.Start
		switch s.Kind {
		case "emit":
			st.emitUs = append(st.emitUs, float64(d)/1e3)
			children[evPE{s.Ev, s.PE}] += d
		case "state":
			st.stateUs = append(st.stateUs, float64(d)/1e3)
			children[evPE{s.Ev, s.PE}] += d
		case "hop":
			st.hopMs = append(st.hopMs, float64(d)/1e6)
		}
	}
	for _, s := range spans {
		if s.Kind == "service" {
			st.serviceSelfUs = append(st.serviceSelfUs, float64(s.End-s.Start-children[evPE{s.Ev, s.PE}])/1e3)
		}
	}
	for _, xs := range [][]float64{st.emitUs, st.stateUs, st.serviceSelfUs, st.hopMs} {
		sort.Float64s(xs)
	}
	return st
}

// runTraced is the pass the per-layer metrics come from: one traced batch
// repetition, a short traced paced run, the overhead family, the baselines
// and the probes. End-to-end metrics never come from here.
func (w *workload) runTraced(seed int64, size sizing, outDir string) (*outcome, error) {
	o := &outcome{Metrics: map[string]metric{}}
	set := func(name string, v float64) { o.set(perLayer, name, v) }
	set("bench.loadavg1", loadavg1())

	_, floorMs, err := w.measureSetup(o, seed, min(size.setupSamples, 3))
	if err != nil {
		return nil, err
	}
	if _, err := w.execute(runSpec{n: max(size.batch/10, 1), seed: seed - 1, fault: noFault}); err != nil {
		return nil, err
	}
	exec := func(s runSpec) (runResult, error) {
		s.fault = noFault
		res, err := w.execute(s)
		if err == nil {
			o.add(res)
		}
		return res, err
	}

	scaling := &autoscale.Trace{}
	batchEvery := sampleEvery(size.batch)
	batch, err := exec(runSpec{n: size.batch, seed: seed, own: true, spans: batchEvery, trace: scaling})
	if err != nil {
		return nil, err
	}
	// The fixed-pool workloads are their own baseline; galaxy_auto's is the
	// same batch under dyn_multi, the paper's contender.
	base := batch
	if w.mapping == "dyn_auto_multi" {
		if base, err = exec(runSpec{n: size.batch, seed: seed, mapping: "dyn_multi"}); err != nil {
			return nil, err
		}
	}
	pacedN := size.pacedEvents(size.tracedPacedSec)
	paced, err := exec(runSpec{n: pacedN, seed: seed + 1, rate: size.rate, own: true, spans: sampleEvery(pacedN), sample: true})
	if err != nil {
		return nil, err
	}

	// Overhead family: the same small batch plain, with a telemetry
	// registry, with a diagnosis plane, and with the benchmark's own spans.
	cpuPerEvent := func(s runSpec) (float64, error) {
		s.n, s.seed, s.own = size.overheadN, seed+2, true
		res, err := exec(s)
		return res.cpuS / float64(size.overheadN), err
	}
	plain, err := cpuPerEvent(runSpec{})
	if err != nil {
		return nil, err
	}
	withTel, err := cpuPerEvent(runSpec{tel: telemetry.New(telemetry.Config{})})
	if err != nil {
		return nil, err
	}
	withDiag, err := cpuPerEvent(runSpec{diag: diagnosis.New(diagnosis.Config{})})
	if err != nil {
		return nil, err
	}
	withSpans, err := cpuPerEvent(runSpec{spans: batchEvery})
	if err != nil {
		return nil, err
	}
	set("telemetry.overhead_share", withTel/plain-1)
	set("diagnosis.overhead_share", withDiag/plain-1)
	set("bench.trace_overhead_share", withSpans/plain-1)

	simpleN := max(size.batch/10, 1)
	simple, err := exec(runSpec{n: simpleN, seed: seed + 3, mapping: "simple", own: true})
	if err != nil {
		return nil, err
	}

	probed, err := w.probes(o, seed, size.probeSamples)
	if err != nil {
		return nil, err
	}

	// From the runs.
	events := float64(size.batch)
	batchCPU := batch.cpuS * 1e6 / events
	ops := batch.report.State
	set("miniredis.commands_per_event", float64(batch.commands)/events)
	set("miniredis.stream_len_max", float64(paced.streamLenMax))
	set("miniredis.keys_after_run", float64(batch.keysAfter+paced.keysAfter))
	set("state.ops_per_event", float64(ops.Total())/events)
	writes := float64(ops.Puts + ops.Adds + ops.Updates + ops.Deletes)
	writeShare := 0.0
	if ops.Total() > 0 {
		writeShare = writes / float64(ops.Total())
	}
	set("state.write_share", writeShare)

	meanActive := batch.report.ProcessTime.Seconds() / batch.report.Runtime.Seconds()
	set("autoscale.mean_active", meanActive)
	set("autoscale.active_share", meanActive/float64(w.procs))
	resizes, last := 0, -1
	for _, p := range scaling.Points() {
		if last >= 0 && p.Active != last {
			resizes++
		}
		last = p.Active
	}
	set("autoscale.resizes", float64(resizes))
	set("autoscale.runtime_ratio", batch.wallS/base.wallS)
	set("autoscale.process_time_ratio", batch.report.ProcessTime.Seconds()/base.report.ProcessTime.Seconds())

	set("mapping.simple_eps", float64(simpleN)/simple.wallS)
	set("mapping.execute_floor_ms", floorMs)
	set("mapping.drain_tail_ms", batch.tailMs)
	set("mapping.baseline_runtime_s", base.wallS)
	set("mapping.baseline_process_time_s", base.report.ProcessTime.Seconds())

	batchSpans, pacedSpans := batch.col.allSpans(), paced.col.allSpans()
	bs, ps := reduceSpans(batchSpans), reduceSpans(pacedSpans)
	set("runtime.emit_call_us_p50", quantile(bs.emitUs, 0.5))
	set("state.call_us_p50", quantile(bs.stateUs, 0.5))
	set("core.service_us_p50", quantile(bs.serviceSelfUs, 0.5))
	set("runtime.hop_ms_p50", quantile(ps.hopMs, 0.5))
	set("runtime.hop_ms_p90", quantile(ps.hopMs, 0.9))

	lat, lost := paced.col.latencies()
	misses := lost
	for _, l := range lat {
		if float64(l)/1e6 > w.sloMs {
			misses++
		}
	}
	lag := append([]int64(nil), paced.col.lag...)
	sort.Slice(lag, func(i, j int) bool { return lag[i] < lag[j] })
	set("runtime.backlog_max", float64(paced.backlogMax))
	set("runtime.gen_lag_p99_ms", float64(quantile(lag, 0.99))/1e6)
	set("runtime.latency_p99_ms", float64(quantile(lat, 0.99))/1e6)
	set("runtime.latency_max_ms", float64(quantile(lat, 1))/1e6)
	set("runtime.slo_miss_share", float64(misses)/float64(pacedN))

	set("proc.peak_rss_mb", procStatusMB("VmHWM"))
	set("proc.alloc_mb_per_mevent", batch.allocMB/(events/1e6))
	set("proc.gc_pause_ms", batch.gcMs)

	col := newCollector(1<<16, make([]uint64, 1<<16))
	seq := 0
	set("bench.collector_ns_per_event", timeInner(size.probeSamples, 256, func() {
		col.offer()
		col.deliver(seq&(1<<16-1), 0, 0)
		seq++
	}))

	// Budget: what the probes say one event should cost, against what the
	// batch repetition measured. Reported, not gated.
	model := 3 * probed["runtime.queue_hop_ns_per_task"] / 1e3 // galaxy_auto: three queue hops
	if w.shards > 0 {
		perHop := probed["runtime.redis_push64_us_per_task"] + probed["runtime.redis_pull64_us_per_task"] + probed["runtime.redis_ack64_us_per_task"]
		model = 2*perHop +
			float64(ops.Adds)/events*probed["state.redis_fenced_addint_us"] +
			float64(ops.Gets)/events*probed["state.redis_get_us"] +
			float64(ops.Puts)/events*probed["state.redis_put_us"]
	}
	set("budget.model_us_per_event", model)
	set("budget.unexplained_share", 1-model/batchCPU)

	set("bench.failed_share", float64(o.Failed)/float64(o.Attempted))
	o.Correct = o.Failed == 0

	tf := traceFile{Workload: w.name, Seed: seed,
		Batch: tracedSpans{Events: size.batch, SampleEvery: batchEvery, Spans: batchSpans},
		Paced: tracedSpans{Events: pacedN, SampleEvery: sampleEvery(pacedN), Spans: pacedSpans},
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return o, os.WriteFile(filepath.Join(outDir, "trace-"+w.name+".json"), data, 0o644)
}
