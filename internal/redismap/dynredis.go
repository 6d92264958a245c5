package redismap

import (
	"fmt"

	"repro/internal/autoscale"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/redisclient"
	"repro/internal/runtime"
	"repro/internal/state"
)

// DynRedis is the dyn_redis mapping.
type DynRedis struct{}

// DynAutoRedis is the dyn_auto_redis mapping.
type DynAutoRedis struct{}

func init() {
	mapping.Register(DynRedis{})
	mapping.Register(DynAutoRedis{})
}

// Name implements mapping.Mapping.
func (DynRedis) Name() string { return "dyn_redis" }

// Name implements mapping.Mapping.
func (DynAutoRedis) Name() string { return "dyn_auto_redis" }

// Execute implements mapping.Mapping.
func (DynRedis) Execute(g *graph.Graph, opts mapping.Options) (metrics.Report, error) {
	return executeDynRedis(g, opts, "dyn_redis", false)
}

// Execute implements mapping.Mapping.
func (DynAutoRedis) Execute(g *graph.Graph, opts mapping.Options) (metrics.Report, error) {
	return executeDynRedis(g, opts, "dyn_auto_redis", true)
}

func executeDynRedis(g *graph.Graph, opts mapping.Options, name string, auto bool) (metrics.Report, error) {
	opts = opts.WithDefaults()
	if err := g.Validate(); err != nil {
		return metrics.Report{}, err
	}
	if err := runtime.ValidateDynamic(g, name); err != nil {
		return metrics.Report{}, err
	}
	// RecoverStale + managed state is safe since the exactly-once fence:
	// OpenManagedState (inside runtime.Execute) implies ExactlyOnceState,
	// which stamps every task with a deterministic identity and drops
	// store mutations a replayed execution already applied, while the
	// transport's fenced acknowledgements keep the pending counter exact
	// when a claimed-away consumer's late XACK lands.
	cluster, err := requireCluster(opts, name)
	if err != nil {
		return metrics.Report{}, err
	}
	defer cluster.Close()

	plan := runtime.PoolPlan(g, opts.Processes)
	keys := runtime.NewRunKeys(g.Name, opts.Seed)
	tr, err := runtime.NewRedisTransport(cluster, keys, plan, opts.RecoverStale)
	if err != nil {
		return metrics.Report{}, fmt.Errorf("%s: %w", name, err)
	}
	tr.RecoverIdle = opts.RecoverIdle
	tr.SetDiagnosis(opts.Diagnosis)
	defer tr.Cleanup(g)

	var ctrl *autoscale.Controller
	if auto {
		cfg := autoscale.Config{MaxPoolSize: opts.Processes}
		if opts.AutoScale != nil {
			cfg = *opts.AutoScale
			cfg.MaxPoolSize = opts.Processes
		}
		// The paper's dyn_auto_redis threshold is the time worth a process
		// reactivation/redeployment; at our millisecond timescale the poll
		// timeout is that order of magnitude.
		strategy := opts.Strategy
		if strategy == nil {
			strategy = &autoscale.IdleTimeStrategy{Threshold: 4 * opts.PollTimeout}
		}
		ctrl = autoscale.NewController(cfg, strategy, opts.Trace)
		go ctrl.RunMonitor(consumerIdleMonitor(cluster, keys, ctrl))
		defer ctrl.Terminate()
	}

	return runtime.Execute(g, opts, runtime.Config{
		Name:       name,
		Plan:       plan,
		Transport:  tr,
		Host:       platform.NewHost(opts.Platform),
		Controller: ctrl,
		NewStateBackend: func() state.Backend {
			return newStateBackend(cluster, keys)
		},
		// Redis round trips dominate this mapping's per-task cost.
		AdaptiveBatching: true,
	})
}

// newStateBackend builds the run's private state backend on the shared
// cluster.
func newStateBackend(cluster *redisclient.Cluster, keys runtime.RedisKeys) state.Backend {
	return state.NewRedisClusterBackend(cluster, keys.Prefix+":state")
}

// consumerIdleMonitor builds the dyn_auto_redis monitoring metric: the mean
// Inactive time of the pool's admitted consumers in the run's consumer group.
// The stream is partitioned per shard and a consumer is active wherever it
// last found work, so the probe scatter-gathers XINFO CONSUMERS across the
// shards and scores each consumer by its most recent activity anywhere
// (minimum Inactive across shards) — a worker busy draining shard 1 is not
// idle just because shard 0 hasn't seen it lately.
func consumerIdleMonitor(cluster *redisclient.Cluster, keys runtime.RedisKeys, ctrl *autoscale.Controller) func() float64 {
	return func() float64 {
		idle := map[int]float64{}
		for s := 0; s < cluster.NumShards(); s++ {
			infos, err := cluster.Shard(s).XInfoConsumers(keys.Queue, keys.Group)
			if err != nil {
				continue
			}
			for _, info := range infos {
				var w int
				if _, err := fmt.Sscanf(info.Name, "w%d", &w); err != nil || !ctrl.Admitted(w) {
					continue
				}
				ms := float64(info.Inactive.Milliseconds())
				if cur, ok := idle[w]; !ok || ms < cur {
					idle[w] = ms
				}
			}
		}
		if len(idle) == 0 {
			return 0
		}
		var sum float64
		for _, ms := range idle {
			sum += ms
		}
		return sum / float64(len(idle))
	}
}
