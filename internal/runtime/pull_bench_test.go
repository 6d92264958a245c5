package runtime_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/runtime"
)

// BenchmarkPullBatching is the consume-side mirror of BenchmarkEmitBatching:
// it measures draining a pre-filled transport through PullBatch + batched
// Ack at fixed windows and under the adaptive sizer. On the Redis transport
// a window becomes one XREADGROUP COUNT n round trip plus one FENCEXACK
// instead of 2n round trips; on the in-process queue it pays
// one lock hold and one modeled synchronization cost per window.
//
// The reported tasks/op metric is fixed (256 consumed per op); compare
// ns/op across sub-benchmarks: batch=64 must beat unbatched ≥2× on redis
// and ≥5× on queue, and auto must land within 20% of the best fixed window.
func BenchmarkPullBatching(b *testing.B) {
	const tasks = 256
	// 0 stands for the adaptive sizer.
	windows := []int{1, 8, 64, 0}
	name := func(w int) string {
		switch w {
		case 0:
			return "auto"
		case 1:
			return "unbatched"
		default:
			return fmt.Sprintf("batch=%d", w)
		}
	}

	poolPlan := runtime.NewPlan(make([]runtime.WorkerSpec, 1), map[string]int{"pe": 0})
	task := runtime.Task{PE: "pe", Port: "in", Value: 7, Instance: -1}

	// fill pushes the workload in large chunks (fill cost is excluded from
	// the measured region by the callers).
	fill := func(b *testing.B, tr runtime.Transport) {
		b.Helper()
		buf := make([]runtime.Task, 64)
		for i := range buf {
			buf[i] = task
		}
		for pushed := 0; pushed < tasks; pushed += len(buf) {
			if err := tr.Push(buf...); err != nil {
				b.Fatal(err)
			}
		}
	}

	// consume drains the workload through the batched pull + ack path. The
	// sizer, when present, persists across iterations like a worker's does
	// across pulls.
	consume := func(b *testing.B, tr runtime.Transport, window int, sizer *runtime.BatchSizer) {
		b.Helper()
		remaining := tasks
		for remaining > 0 {
			max := window
			if sizer != nil {
				max = sizer.Next()
			}
			start := time.Now()
			envs, err := tr.PullBatch(0, max, time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if len(envs) == 0 {
				b.Fatal("transport ran dry mid-workload")
			}
			if sizer != nil {
				sizer.Observe(time.Since(start), len(envs))
			}
			if err := tr.Ack(0, envs...); err != nil {
				b.Fatal(err)
			}
			remaining -= len(envs)
		}
	}

	b.Run("redis", func(b *testing.B) {
		cluster := oneShardCluster(b)
		cl := cluster.Shard(0)
		for _, window := range windows {
			window := window
			b.Run(name(window), func(b *testing.B) {
				keys := runtime.NewRunKeys("pullbench", int64(window))
				tr, err := runtime.NewRedisTransport(cluster, keys, poolPlan, false)
				if err != nil {
					b.Fatal(err)
				}
				var sizer *runtime.BatchSizer
				if window == 0 {
					sizer = runtime.NewBatchSizer()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					// Reset the stream so the server's memory stays bounded,
					// then refill outside the measured region.
					if _, err := cl.Del(keys.Queue, keys.PendingKey); err != nil {
						b.Fatal(err)
					}
					if err := cl.XGroupCreate(keys.Queue, keys.Group, "0"); err != nil {
						b.Fatal(err)
					}
					fill(b, tr)
					b.StartTimer()
					consume(b, tr, window, sizer)
				}
				b.ReportMetric(float64(tasks), "tasks/op")
			})
		}
	})

	b.Run("queue", func(b *testing.B) {
		for _, window := range windows {
			window := window
			b.Run(name(window), func(b *testing.B) {
				// The modeled per-op synchronization cost is what the
				// multi-dequeue amortizes on the in-process path.
				q := runtime.NewQueue(2 * time.Microsecond)
				tr := runtime.NewQueueTransport(q)
				var sizer *runtime.BatchSizer
				if window == 0 {
					sizer = runtime.NewBatchSizer()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					fill(b, tr)
					b.StartTimer()
					consume(b, tr, window, sizer)
				}
				b.ReportMetric(float64(tasks), "tasks/op")
			})
		}
	})
}
