package main

import (
	"fmt"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/autoscale"
	"repro/internal/diagnosis"
	_ "repro/internal/dynamic" // registers dyn_multi, dyn_auto_multi
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/miniredis"
	"repro/internal/platform"
	"repro/internal/redisclient"
	_ "repro/internal/redismap" // registers dyn_redis
	"repro/internal/telemetry"
)

// runSpec is one Execute of a workload's graph.
type runSpec struct {
	n    int
	seed int64
	// rate > 0 makes the source open-loop at that many events/s.
	rate float64
	// mapping overrides the workload's mapping (baseline and simple runs).
	mapping string
	// own forces the benchmark-built galaxy stages (see buildGraph).
	own bool
	// spans records spans from the benchmark's PEs, sampling one event in
	// spans (0 = off).
	spans int
	// sample runs the side sampler (backlog, stream length).
	sample bool
	tel    *telemetry.Registry
	diag   *diagnosis.Diag
	trace  *autoscale.Trace
	fault  fault
}

// runResult is what one Execute produced, as the benchmark saw it.
type runResult struct {
	col     *collector
	report  metrics.Report
	failed  int
	setupS  float64 // shards started → first event offered
	wallS   float64 // Execute wall time
	cpuS    float64 // getrusage user+sys over Execute
	tailMs  float64 // last sink delivery → Execute returned
	allocMB float64
	gcMs    float64
	// commands is the miniredis command count of the run; keysAfter the sum
	// of DBSIZE over the shards once Execute had returned.
	commands  int64
	keysAfter int64
	// From the side sampler.
	streamLenMax int64
	backlogMax   int64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// execute runs the workload's graph once: fresh shards, fresh collector,
// one Execute, then the oracle.
func (w *workload) execute(s runSpec) (runResult, error) {
	if s.mapping == "" {
		s.mapping = w.mapping
	}
	m, err := mapping.Get(s.mapping)
	if err != nil {
		return runResult{}, err
	}
	redis := strings.Contains(s.mapping, "redis")
	col := newCollector(s.n, w.expectation(s.seed, s.n))
	if s.spans > 0 {
		col.traced(s.spans)
	}
	goruntime.GC()

	// Set-up starts here: shards, graph, and Execute up to the first offer.
	col.t0 = time.Now()
	opts := mapping.Options{
		Processes: w.procs, Platform: platform.Server, Seed: s.seed,
		ExactlyOnceState: w.fenced && redis,
		Telemetry:        s.tel, Diagnosis: s.diag, Trace: s.trace,
	}
	var servers []*miniredis.Server
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()
	if redis {
		for i := 0; i < w.shards; i++ {
			srv := miniredis.NewServer(miniredis.Options{})
			if err := srv.Start(); err != nil {
				return runResult{}, fmt.Errorf("start shard %d: %w", i, err)
			}
			servers = append(servers, srv)
			opts.RedisAddrs = append(opts.RedisAddrs, srv.Addr())
		}
	}
	g := w.buildGraph(col, s.seed, s.n, s.rate, s.own, s.fault)

	var sampler *sampler
	if s.sample {
		sampler = startSampler(col, opts.RedisAddrs)
	}
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	cpu0, t0 := cpuSeconds(), time.Now()
	report, execErr := m.Execute(g, opts)
	wall := time.Since(t0)
	cpu1, done := cpuSeconds(), col.now()
	goruntime.ReadMemStats(&ms1)

	res := runResult{
		col: col, report: report,
		setupS: float64(col.firstOffer.Load()) / 1e9,
		wallS:  wall.Seconds(), cpuS: cpu1 - cpu0,
		tailMs:  float64(done-col.lastDelivery()) / 1e6,
		allocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		gcMs:    float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
	}
	if sampler != nil {
		res.streamLenMax, res.backlogMax = sampler.stop()
	}
	for _, srv := range servers {
		res.commands += srv.Commands()
		cl := redisclient.Dial(srv.Addr())
		keys, err := cl.DoInt("DBSIZE")
		cl.Close()
		if err != nil {
			return res, fmt.Errorf("DBSIZE: %w", err)
		}
		res.keysAfter += keys
	}
	res.failed = w.check(col, execErr)
	if res.keysAfter != 0 && res.failed == 0 {
		// Leftover keys are a leak the run must not hide.
		res.failed = 1
	}
	if execErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: Execute: %v\n", w.name, execErr)
	}
	return res, nil
}

// sampler polls, from outside the run, how far delivery lags the offer and
// how long the pool stream is.
type sampler struct {
	quit         chan struct{}
	done         chan struct{}
	streamLenMax int64
	backlogMax   int64
}

func startSampler(col *collector, addrs []string) *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		clients := make([]*redisclient.Client, len(addrs))
		for i, a := range addrs {
			clients[i] = redisclient.Dial(a)
			defer clients[i].Close()
		}
		stream := ""
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
			if b := col.offered.Load() - col.delivered.Load(); b > s.backlogMax {
				s.backlogMax = b
			}
			if len(clients) == 0 {
				continue
			}
			if stream == "" {
				// The run's pool stream is runtime.NewRunKeys(..).Queue; its
				// nonce is private to the mapping, so find it by pattern.
				if v, err := clients[0].Do("KEYS", "d4p:*:queue"); err == nil && len(v.Array) > 0 {
					stream = v.Array[0].Str
				}
				continue
			}
			var total int64
			for _, cl := range clients {
				if n, err := cl.XLen(stream); err == nil {
					total += n
				}
			}
			if total > s.streamLenMax {
				s.streamLenMax = total
			}
		}
	}()
	return s
}

func (s *sampler) stop() (streamLenMax, backlogMax int64) {
	close(s.quit)
	<-s.done
	return s.streamLenMax, s.backlogMax
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line a single-workload run prints, in the shape the
// driver's contract fixes.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (o *outcome) add(res runResult) {
	o.Attempted += res.col.n
	o.Failed += res.failed
}

func (o *outcome) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			o.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in spec.go")
}

// measureSetup runs the workload's graph over one event several times and
// returns each set-up time (shards started → first event offered) and the
// median wall time of the whole one-event Execute.
func (w *workload) measureSetup(o *outcome, seed int64, samples int) (setups []float64, floorMs float64, err error) {
	var walls []float64
	for i := 0; i < samples; i++ {
		// own: galaxy.New's source cannot report its first offer.
		res, err := w.execute(runSpec{n: 1, seed: seed + int64(i), own: true, fault: noFault})
		if err != nil {
			return nil, 0, err
		}
		o.add(res)
		setups = append(setups, res.setupS)
		walls = append(walls, res.wallS*1e3)
	}
	return setups, median(walls), nil
}

// runUntraced is the pass the end-to-end metrics come from: set-up samples,
// an untimed warm-up, the closed-loop batch repetitions and the open-loop
// paced run, all with telemetry and diagnosis off.
func (w *workload) runUntraced(seed int64, size sizing) (*outcome, error) {
	o := &outcome{Metrics: map[string]metric{}}
	setups, _, err := w.measureSetup(o, seed, size.setupSamples)
	if err != nil {
		return nil, err
	}
	// The first repetition of a process runs 10-25% slow; spend it untimed.
	if _, err := w.execute(runSpec{n: max(size.batch/10, 1), seed: seed - 1, fault: noFault}); err != nil {
		return nil, err
	}
	var wall, ptime, cpu []float64
	for rep := 0; rep < size.reps; rep++ {
		res, err := w.execute(runSpec{n: size.batch, seed: seed + int64(rep), fault: noFault})
		if err != nil {
			return nil, err
		}
		o.add(res)
		if res.setupS > 0 {
			setups = append(setups, res.setupS)
		}
		wall = append(wall, res.wallS)
		ptime = append(ptime, res.report.ProcessTime.Seconds())
		cpu = append(cpu, res.cpuS*1e6/float64(size.batch))
	}
	// The paced phase is several independent segments: a segment that hits a
	// slow moment of the host moves the median little.
	n := size.pacedEvents(size.pacedSec / float64(size.pacedSegs))
	var p50, p90, pacedCPU []float64
	pacedPtime := 0.0
	for seg := 0; seg < size.pacedSegs; seg++ {
		res, err := w.execute(runSpec{n: n, seed: seed + int64(size.reps+seg), rate: size.rate, fault: noFault})
		if err != nil {
			return nil, err
		}
		o.add(res)
		lat, _ := res.col.latencies()
		p50 = append(p50, float64(quantile(lat, 0.50))/1e6)
		p90 = append(p90, float64(quantile(lat, 0.90))/1e6)
		pacedCPU = append(pacedCPU, res.cpuS*1e6/float64(n))
		pacedPtime += res.report.ProcessTime.Seconds()
	}

	o.set(endToEnd, "setup_s", median(setups))
	o.set(endToEnd, "batch_runtime_s", median(wall))
	o.set(endToEnd, "batch_process_time_s", median(ptime))
	o.set(endToEnd, "batch_cpu_us_per_event", median(cpu))
	o.set(endToEnd, "paced_latency_p50_ms", median(p50))
	o.set(endToEnd, "paced_latency_p90_ms", median(p90))
	o.set(endToEnd, "paced_process_time_s", pacedPtime)
	o.set(endToEnd, "paced_cpu_us_per_event", median(pacedCPU))
	o.Correct = o.Failed == 0
	return o, nil
}

// procStatusMB reads one kB-valued field of /proc/self/status in MB.
func procStatusMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// loadavg1 is the host's one-minute load average.
func loadavg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}
