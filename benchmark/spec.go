package main

import "time"

// runSeconds is BENCHMARK.json's run_seconds: the measuring time the frozen
// sizes below were chosen for. -seconds scales repetitions and the paced
// run's length in proportion; batch sizes and paced rates never change.
const runSeconds = 20

// sizing is what one run of a workload executes. The values in the
// workloads table were measured once on the host README.md records and are
// frozen: a later change is judged against them, so they change only in a
// PR that changes nothing else.
type sizing struct {
	// batch is the closed-loop batch size in events; reps is how many timed
	// repetitions follow the untimed 1/10-size warm-up.
	batch, reps int
	// rate is the open-loop rate in events/s; pacedSec the paced phase's
	// length, run as pacedSegs independent segments of equal length.
	rate      float64
	pacedSec  float64
	pacedSegs int
	// tracedPacedSec is the paced run's length in the traced pass.
	tracedPacedSec float64
	// overheadN is the batch size of the overhead family of the traced pass
	// (plain, telemetry registry, diagnosis, spans).
	overheadN int
	// probeSamples is the sample count of each layer probe.
	probeSamples int
	// setupSamples is how many dedicated set-up measurements a run makes.
	setupSamples int
}

// workload is one row of the benchmark: a mapping, a pool, a graph shape,
// and the frozen sizes it runs at.
type workload struct {
	name    string
	why     string
	mapping string
	procs   int
	shards  int
	// fenced switches Options.ExactlyOnceState on.
	fenced bool
	// sloMs is the latency limit slo_miss_share counts against.
	sloMs float64
	// users and skew shape the zipfian key space of the Redis workloads.
	users int
	skew  float64
	size  sizing
}

// The four workloads. Names are final: later issues cite them.
var workloads = []*workload{
	{
		name:    "relay",
		why:     "stateless gen-map-sink over dyn_redis: codec, resp, redisclient, miniredis streams and the worker loop do all the work",
		mapping: "dyn_redis", procs: 4, shards: 1, sloMs: 20, users: 100_000, skew: 1.1,
		size: sizing{batch: 1_200_000, reps: 3, rate: 100_000, pacedSec: 8, pacedSegs: 4, tracedPacedSec: 4, overheadN: 300_000, probeSamples: 200, setupSamples: 9},
	},
	{
		name:    "session",
		why:     "one fenced keyed AddInt per event on two shards: state fence, FENCEAPPLY and ring routing dominate, transport is the minority",
		mapping: "dyn_redis", procs: 4, shards: 2, fenced: true, sloMs: 20, users: 100_000, skew: 1.1,
		size: sizing{batch: 200_000, reps: 3, rate: 20_000, pacedSec: 8, pacedSegs: 4, tracedPacedSec: 4, overheadN: 50_000, probeSamples: 200, setupSamples: 9},
	},
	{
		name:    "enrich",
		why:     "cache-aside lookup, unfenced: plain state reads with a minority of idempotent writes, the state layer used the other way from session",
		mapping: "dyn_redis", procs: 4, shards: 1, sloMs: 20, users: 100_000, skew: 1.1,
		size: sizing{batch: 200_000, reps: 3, rate: 20_000, pacedSec: 8, pacedSegs: 4, tracedPacedSec: 4, overheadN: 50_000, probeSamples: 200, setupSamples: 9},
	},
	{
		name:    "galaxy_auto",
		why:     "the paper's heavy Internal Extinction workflow under dyn_auto_multi at 16 processes: service time, autoscale and the in-process queue, no Redis",
		mapping: "dyn_auto_multi", procs: 16, sloMs: 150,
		size: sizing{batch: 1000, reps: 2, rate: 400, pacedSec: 8, pacedSegs: 4, tracedPacedSec: 4, overheadN: 100, probeSamples: 200, setupSamples: 9},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled returns the sizing for a run of the given measuring time: the
// repetition count and paced length follow -seconds, sizes and rates stay.
func (s sizing) scaled(seconds int) sizing {
	f := float64(seconds) / runSeconds
	s.reps = int(float64(s.reps)*f + 0.5)
	if s.reps < 1 {
		s.reps = 1
	}
	s.pacedSec *= f
	return s
}

// shrunk returns the sizing divided by div, for the tier-1 smoke test.
func (s sizing) shrunk(div int) sizing {
	s.batch = max(s.batch/div, 40)
	s.reps = 1
	s.rate = s.rate / 10
	s.pacedSec, s.pacedSegs, s.tracedPacedSec = 0.3, 1, 0.3
	s.overheadN = max(s.overheadN/div, 20)
	s.probeSamples = 20
	s.setupSamples = 2
	return s
}

func (s sizing) pacedEvents(sec float64) int { return int(s.rate * sec) }

// metricDef names one metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order. All are
// lower-is-better. failed_share is the ninth end-to-end number; it is 0 on a
// correct run, which the driver's contract forbids for a bounded metric, so
// BENCHMARK.json carries it through attempted/failed and as the per-layer
// row bench.failed_share, and -compare gates it separately.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"batch_runtime_s", "s"},
	{"batch_process_time_s", "s"},
	{"batch_cpu_us_per_event", "us"},
	{"paced_latency_p50_ms", "ms"},
	{"paced_latency_p90_ms", "ms"},
	{"paced_process_time_s", "s"},
	{"paced_cpu_us_per_event", "us"},
}

// perLayer lists the per-layer metrics; the prefix is the module measured.
var perLayer = []metricDef{
	{"codec.encode_ns_per_task", "ns"},
	{"codec.decode_ns_per_task", "ns"},
	{"codec.encode_allocs_per_task", "count"},
	{"codec.decode_allocs_per_task", "count"},
	{"codec.bytes_per_task", "B"},
	{"resp.write_cmd_ns", "ns"},
	{"resp.read_reply_ns", "ns"},
	{"resp.wire_bytes_per_task", "B"},
	{"redisclient.do_rtt_us", "us"},
	{"redisclient.pipeline64_rtt_us", "us"},
	{"redisclient.shardfor_ns", "ns"},
	{"miniredis.commands_per_event", "count"},
	{"miniredis.xadd_us", "us"},
	{"miniredis.xreadgroup64_us", "us"},
	{"miniredis.xack64_us", "us"},
	{"miniredis.hget_us", "us"},
	{"miniredis.hset_us", "us"},
	{"miniredis.hincrby_us", "us"},
	{"miniredis.fenceapply_us", "us"},
	{"miniredis.fencexack_us", "us"},
	{"miniredis.sinkappend_us", "us"},
	{"miniredis.stream_len_max", "count"},
	{"miniredis.keys_after_run", "count"},
	{"runtime.redis_push1_us", "us"},
	{"runtime.redis_pull1_us", "us"},
	{"runtime.redis_push64_us_per_task", "us"},
	{"runtime.redis_pull64_us_per_task", "us"},
	{"runtime.redis_ack64_us_per_task", "us"},
	{"runtime.queue_hop_ns_per_task", "ns"},
	{"runtime.queue_hop64_ns_per_task", "ns"},
	{"runtime.emit_call_us_p50", "us"},
	{"runtime.hop_ms_p50", "ms"},
	{"runtime.hop_ms_p90", "ms"},
	{"runtime.backlog_max", "count"},
	{"runtime.gen_lag_p99_ms", "ms"},
	{"runtime.latency_p99_ms", "ms"},
	{"runtime.latency_max_ms", "ms"},
	{"runtime.slo_miss_share", "ratio"},
	{"state.mem_addint_ns", "ns"},
	{"state.mem_get_ns", "ns"},
	{"state.redis_addint_us", "us"},
	{"state.redis_fenced_addint_us", "us"},
	{"state.redis_coalesced_addint_us", "us"},
	{"state.redis_get_us", "us"},
	{"state.redis_put_us", "us"},
	{"state.checkpoint_ms_50k", "ms"},
	{"state.restore_ms_50k", "ms"},
	{"state.ledger_fields_per_kop", "count"},
	{"state.ops_per_event", "count"},
	{"state.write_share", "ratio"},
	{"state.call_us_p50", "us"},
	{"autoscale.mean_active", "count"},
	{"autoscale.active_share", "ratio"},
	{"autoscale.resizes", "count"},
	{"autoscale.runtime_ratio", "ratio"},
	{"autoscale.process_time_ratio", "ratio"},
	{"mapping.simple_eps", "1/s"},
	{"mapping.execute_floor_ms", "ms"},
	{"mapping.drain_tail_ms", "ms"},
	{"mapping.baseline_runtime_s", "s"},
	{"mapping.baseline_process_time_s", "s"},
	{"core.service_us_p50", "us"},
	{"platform.work_overshoot_us", "us"},
	{"telemetry.observe_ns", "ns"},
	{"telemetry.overhead_share", "ratio"},
	{"diagnosis.overhead_share", "ratio"},
	{"proc.peak_rss_mb", "MB"},
	{"proc.alloc_mb_per_mevent", "MB"},
	{"proc.gc_pause_ms", "ms"},
	{"bench.collector_ns_per_event", "ns"},
	{"bench.trace_overhead_share", "ratio"},
	{"bench.loadavg1", "count"},
	{"bench.failed_share", "ratio"},
	{"budget.model_us_per_event", "us"},
	{"budget.unexplained_share", "ratio"},
}

// Modelled service times of the paced galaxy graph, copied from
// internal/workflows/galaxy (they are unexported there): the paced run is
// the same four stages behind a paced source.
const (
	galaxyReadCost   = 100 * time.Microsecond
	galaxyVOCost     = 2 * time.Millisecond
	galaxyFilterCost = 1 * time.Millisecond
	galaxyExtCost    = 500 * time.Microsecond
	galaxyHeavyMax   = 20 * time.Millisecond
	galaxyVORows     = 3
)
