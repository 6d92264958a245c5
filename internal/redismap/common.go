// Package redismap implements the paper's Redis-backed mappings:
//
//   - dyn_redis (Section 3.1.1): dynamic scheduling whose global queue is a
//     Redis Stream consumed through a consumer group, replacing the
//     multiprocessing queue of dyn_multi;
//   - dyn_auto_redis (Section 3.2.2): dyn_redis plus the Algorithm 1
//     auto-scaler driven by the consumer group's average idle time;
//   - hybrid_redis (Section 3.1.2): stateful PE instances pinned to
//     dedicated processes with private Redis stream partitions, while
//     stateless PEs keep dynamic scheduling on the global stream;
//   - hybrid_auto_redis: hybrid_redis with the auto-scaler on its stateless
//     pool.
//
// The mappings are planners over runtime.RedisTransport: tasks are
// flat-binary-encoded (package codec) and shipped through real TCP
// connections to the Redis servers (internal/miniredis in this repository,
// or any RESP2-compatible server), so the cost structure of the Redis
// mappings — heavier than in-process queues, as the paper observes — is
// physically present rather than assumed. Every Redis planner sizes its emit
// and pull windows adaptively (runtime.Config.AdaptiveBatching), and the
// transport pipelines the XADD commands of an emit batch into one round trip
// per shard.
//
// Every Redis-touching component of a run — transport, state backend, fence
// ledger, autoscale monitor — shares one redisclient.Cluster built here, so
// they agree on shard placement (the co-location invariant behind
// single-shard FENCEAPPLY/SINKAPPEND transactions) and no code path opens
// its own unrouted connection.
package redismap

import (
	"fmt"

	"repro/internal/mapping"
	"repro/internal/redisclient"
)

// requireCluster validates the Redis data-plane addresses and dials the
// run's shared shard cluster. The caller owns the handle (defer Close).
func requireCluster(opts mapping.Options, technique string) (*redisclient.Cluster, error) {
	addrs := opts.ShardAddrs()
	if len(addrs) == 0 {
		return nil, fmt.Errorf("%s: Options.RedisAddrs is required (start internal/miniredis and pass its address)", technique)
	}
	cluster, err := redisclient.NewCluster(addrs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", technique, err)
	}
	if err := cluster.Ping(); err != nil {
		cluster.Close()
		return nil, fmt.Errorf("%s: redis unreachable: %w", technique, err)
	}
	return cluster, nil
}
