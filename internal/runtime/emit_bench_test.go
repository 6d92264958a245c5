package runtime_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/runtime"
)

// BenchmarkEmitBatching compares unbatched task emission (one transport push
// per emitted value, what the in-process planners run) against batched
// emission (one push per batch) on the hot emit path. On the
// Redis transport a batch becomes one pipelined round trip — INCRBY plus all
// XADDs sharing a single network exchange — which is where the throughput
// win of Zhao et al.'s batching optimization comes from; on the in-process
// queue a batch pays one lock acquisition and one modeled synchronization
// cost instead of per-task ones.
//
// The reported tasks/op metric is fixed (256 emissions per op); compare
// ns/op across sub-benchmarks: batch=64 must beat unbatched on redis.
func BenchmarkEmitBatching(b *testing.B) {
	const emits = 256
	batches := []int{1, 16, 64}

	poolPlan := runtime.NewPlan(make([]runtime.WorkerSpec, 1), map[string]int{"pe": 0})
	task := runtime.Task{PE: "pe", Port: "in", Value: 7, Instance: -1}

	// pushAll emits the workload through the transport in chunks of batch,
	// mirroring what the worker's batcher hands to Push.
	pushAll := func(b *testing.B, tr runtime.Transport, batch int) {
		b.Helper()
		buf := make([]runtime.Task, 0, batch)
		for i := 0; i < emits; i++ {
			buf = append(buf, task)
			if len(buf) == batch {
				if err := tr.Push(buf...); err != nil {
					b.Fatal(err)
				}
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			if err := tr.Push(buf...); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("redis", func(b *testing.B) {
		cluster := oneShardCluster(b)
		cl := cluster.Shard(0)
		for _, batch := range batches {
			name := "unbatched"
			if batch > 1 {
				name = fmt.Sprintf("batch=%d", batch)
			}
			b.Run(name, func(b *testing.B) {
				keys := runtime.NewRunKeys("bench", int64(batch))
				tr, err := runtime.NewRedisTransport(cluster, keys, poolPlan, false)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pushAll(b, tr, batch)
					// Reset the stream outside the measured region so the
					// server's memory stays bounded across iterations.
					b.StopTimer()
					if _, err := cl.Del(keys.Queue, keys.PendingKey); err != nil {
						b.Fatal(err)
					}
					if err := cl.XGroupCreate(keys.Queue, keys.Group, "0"); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(emits), "tasks/op")
			})
		}
	})

	b.Run("queue", func(b *testing.B) {
		for _, batch := range batches {
			name := "unbatched"
			if batch > 1 {
				name = fmt.Sprintf("batch=%d", batch)
			}
			b.Run(name, func(b *testing.B) {
				// The modeled per-op synchronization cost is what batching
				// amortizes on the in-process path.
				q := runtime.NewQueue(2 * time.Microsecond)
				tr := runtime.NewQueueTransport(q)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pushAll(b, tr, batch)
					b.StopTimer()
					for {
						if envs, _ := tr.PullBatch(0, emits, 0); len(envs) == 0 {
							break
						}
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(emits), "tasks/op")
			})
		}
	})
}
