package redisclient_test

import (
	"fmt"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/miniredis"
	"repro/internal/redisclient"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkFenceApplyShared runs fenced increments from 1 and 4 concurrent
// callers against an in-process miniredis and reports what each op costs:
// CPU time (client and server together, from getrusage) and the client's
// Write and Read calls on the wire. Concurrent retry-safe commands share one
// connection's writes and reads, which the per-op syscall counts show.
func BenchmarkFenceApplyShared(b *testing.B) {
	for _, callers := range []int{1, 4} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			srv, err := miniredis.StartTestServer()
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			var d countingDialer
			cl := redisclient.Dial(srv.Addr())
			cl.Dialer = d.Dial
			defer cl.Close()
			if err := cl.Ping(); err != nil {
				b.Fatal(err)
			}
			writes, reads := d.writes.Load(), d.reads.Load()
			cpu := cpuTime(b)
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < callers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := w; i < b.N; i += callers {
						if _, _, err := cl.FenceApplyIncr("h", fmt.Sprintf("t:%d", i), "cnt", 1); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			n := float64(b.N)
			b.ReportMetric(float64((cpuTime(b)-cpu).Microseconds())/n, "cpu_us/op")
			b.ReportMetric(float64(d.writes.Load()-writes)/n, "writes/op")
			b.ReportMetric(float64(d.reads.Load()-reads)/n, "reads/op")
		})
	}
}
