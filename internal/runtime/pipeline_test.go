package runtime

import (
	"bytes"
	"errors"
	goruntime "runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/miniredis"
	"repro/internal/platform"
	"repro/internal/redisclient"
)

// PushersRunning counts the goroutines currently inside a pusher's loop.
func PushersRunning() int {
	buf := make([]byte, 1<<20)
	for {
		n := goruntime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("(*pusher).run("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// byPusher reports whether the calling goroutine is a pusher.
func byPusher() bool {
	buf := make([]byte, 8<<10)
	return bytes.Contains(buf[:goruntime.Stack(buf, false)], []byte("(*pusher).run("))
}

// recordingTransport is an in-process pool transport whose Push takes delay
// and which logs every completed Push and every Ack in the order they
// happened. From the failAt-th Push on (1-based; 0 never), Push fails
// instead.
type recordingTransport struct {
	*QueueTransport
	delay  time.Duration
	failAt int

	mu     sync.Mutex
	hold   chan struct{} // when set, a pusher's Push first waits for it to close
	calls  int
	events []transportEvent
}

// transportEvent is one logged Push (tasks pushed, piped when the pusher
// made it) or Ack (tasks released).
type transportEvent struct {
	ack, piped bool
	tasks      []Task
}

var errPushFailed = errors.New("push failed")

func newRecordingTransport(delay time.Duration) *recordingTransport {
	return &recordingTransport{QueueTransport: NewQueueTransport(NewQueue(0)), delay: delay}
}

// holdPushes makes every later Push by a pusher wait until release is
// called; inline pushes go through.
func (r *recordingTransport) holdPushes() (release func()) {
	gate := make(chan struct{})
	r.mu.Lock()
	r.hold = gate
	r.mu.Unlock()
	return sync.OnceFunc(func() { close(gate) })
}

func (r *recordingTransport) Push(tasks ...Task) error {
	r.mu.Lock()
	r.calls++
	call, hold := r.calls, r.hold
	r.mu.Unlock()
	piped := byPusher()
	if hold != nil && piped {
		<-hold
	}
	time.Sleep(r.delay)
	if r.failAt > 0 && call >= r.failAt {
		return errPushFailed
	}
	if err := r.QueueTransport.Push(tasks...); err != nil {
		return err
	}
	r.log(transportEvent{piped: piped, tasks: slices.Clone(tasks)})
	return nil
}

func (r *recordingTransport) Ack(w int, envs ...Env) error {
	tasks := make([]Task, len(envs))
	for i, env := range envs {
		tasks[i] = env.Task
	}
	r.log(transportEvent{ack: true, tasks: tasks})
	return r.QueueTransport.Ack(w, envs...)
}

func (r *recordingTransport) log(ev transportEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// pushed returns the values pushed so far, in push order, and how many
// pushes were made inline and by the pusher.
func (r *recordingTransport) pushed() (values []any, inline, piped int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range r.events {
		if ev.ack {
			continue
		}
		if ev.piped {
			piped++
		} else {
			inline++
		}
		for _, t := range ev.tasks {
			values = append(values, t.Value)
		}
	}
	return values, inline, piped
}

// TestPipelinedEmissionOrderAndBarrier drives one adaptive batcher over a
// transport whose Push takes 1 ms. Fast bursts fill windows faster than a
// push and go through the pusher; after each pause the aged window is pushed
// inline. Last, a piped push is stalled while slowly filled windows follow
// it: they must queue behind it, not overtake it inline. The transport must
// see every task in emission order, and a flush — mid-run, with windows
// queued, and at the end — must return only once every task handed off
// before it has been pushed.
func TestPipelinedEmissionOrderAndBarrier(t *testing.T) {
	tr := newRecordingTransport(time.Millisecond)
	b := newBatcher(tr, true)
	defer b.close()
	emit := func(i int) {
		t.Helper()
		if err := b.push(Task{PE: "pe", Port: "in", Value: i, Instance: -1}); err != nil {
			t.Fatal(err)
		}
	}
	const n = 3000
	for i := 0; i < n; i++ {
		if i%500 == 499 {
			time.Sleep(5 * time.Millisecond)
		}
		emit(i)
		if i == 1000 {
			if err := b.flush(); err != nil {
				t.Fatal(err)
			}
			if got, _, _ := tr.pushed(); len(got) != i+1 {
				t.Fatalf("mid-run flush returned with %d of %d tasks pushed", len(got), i+1)
			}
		}
	}
	if err := b.flush(); err != nil {
		t.Fatal(err)
	}
	release := tr.holdPushes()
	defer release()
	total := n + 2*b.window()
	for i := n; i < total; i++ {
		emit(i)
		if i >= n+b.window() {
			time.Sleep(emitFlushEvery / 2)
		}
	}
	release()
	if err := b.flush(); err != nil {
		t.Fatal(err)
	}
	got, inline, piped := tr.pushed()
	if len(got) != total {
		t.Fatalf("flush returned with %d of %d tasks pushed", len(got), total)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("push order: position %d holds task %v — the emitter's FIFO order broke", i, v)
		}
	}
	if inline == 0 || piped == 0 {
		t.Fatalf("%d inline and %d piped pushes: the run must exercise both paths", inline, piped)
	}
}

// TestAdaptiveWindowAgesOut pins the age cut of an emit window: with the
// sizer grown to its cap, so that size never cuts a window, a trickle
// emitter's windows are pushed once they are emitFlushEvery old. Every push
// holds only tasks emitted within emitFlushEvery of its first task, plus
// the one gap to the task whose emission found the window aged.
func TestAdaptiveWindowAgesOut(t *testing.T) {
	tr := newRecordingTransport(0)
	b := newBatcher(tr, true)
	defer b.close()
	for b.sizer.Next() < autoBatchMax {
		b.sizer.Observe(100*time.Microsecond, b.sizer.Next())
	}
	// Three windows of about five tasks each: every push of so few tasks
	// halves the sizer, and three halvings leave it far above five. The
	// emitter spins to its schedule, because a sleep this short overshoots
	// to a timer tick on some hosts.
	const gap, n = emitFlushEvery / 4, 16
	began := make([]time.Time, n) // just before the task's emission
	ended := make([]time.Time, n) // just after it
	start := time.Now()
	for i := range n {
		for time.Since(start) < time.Duration(i)*gap {
		}
		began[i] = time.Now()
		if err := b.push(Task{PE: "pe", Port: "in", Value: i, Instance: -1}); err != nil {
			t.Fatal(err)
		}
		ended[i] = time.Now()
	}
	_, inline, piped := tr.pushed()
	if err := b.flush(); err != nil {
		t.Fatal(err)
	}
	if inline+piped == 0 {
		t.Fatalf("%d tasks over %v went out in the final flush only: no window aged out", n, time.Duration(n-1)*gap)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	next := 0
	for _, ev := range tr.events {
		first := ev.tasks[0].Value.(int)
		if first != next {
			t.Fatalf("push starts at task %d, want %d", first, next)
		}
		last := ev.tasks[len(ev.tasks)-1].Value.(int)
		// Each task before the last one was emitted while the window was
		// younger than the bound, or its emission would have shipped it.
		for i := first; i < last; i++ {
			if age := began[i].Sub(ended[first]); age >= emitFlushEvery {
				t.Fatalf("push of tasks %d..%d holds task %d emitted %v after the first, past the %v bound", first, last, i, age, emitFlushEvery)
			}
		}
		next = last + 1
	}
	if next != n {
		t.Fatalf("pushes carried %d of %d tasks", next, n)
	}
}

// TestPipelinedPushErrorIsSticky: the pusher's Push blocks with the queue
// full, so the emitter waits; when that Push fails, the error releases the
// waiting emitter and is returned again by every later emission and flush.
// The queue never held more than its bound.
func TestPipelinedPushErrorIsSticky(t *testing.T) {
	tr := newRecordingTransport(time.Millisecond)
	tr.failAt = 2
	b := newBatcher(tr, true)
	defer b.close()
	// The first window is pushed inline; every piped push after it stalls.
	if err := b.push(Task{PE: "pe", Port: "in", Instance: -1}); err != nil {
		t.Fatal(err)
	}
	release := tr.holdPushes()
	defer release()
	emitted := make(chan error, 1)
	go func() {
		for i := 1; ; i++ {
			if err := b.push(Task{PE: "pe", Port: "in", Value: i, Instance: -1}); err != nil {
				emitted <- err
				return
			}
		}
	}()
	// The emitter can only stop growing the queue by waiting on it.
	p, last, stable := b.pipe, -1, 0
	for deadline := time.Now().Add(5 * time.Second); stable < 20; time.Sleep(time.Millisecond) {
		p.mu.Lock()
		depth := len(p.queue)
		p.mu.Unlock()
		if depth > 0 && depth == last {
			stable++
		} else {
			stable = 0
		}
		last = depth
		if time.Now().After(deadline) {
			t.Fatal("the emitter never waited on the pusher's queue")
		}
	}
	p.mu.Lock() // the waiting emitter released it last: its window is settled
	limit := pipeWindows * b.window()
	p.mu.Unlock()
	if last > limit {
		t.Fatalf("queue holds %d tasks, over its %d-task bound", last, limit)
	}
	select {
	case err := <-emitted:
		t.Fatalf("the emitter returned %v before the push failed", err)
	default:
	}
	release()
	select {
	case err := <-emitted:
		if !errors.Is(err, errPushFailed) {
			t.Fatalf("blocked emission returned %v, want the push error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the failed push did not release the emitter waiting on the full queue")
	}
	if err := b.push(Task{PE: "pe", Port: "in", Instance: -1}); !errors.Is(err, errPushFailed) {
		t.Fatalf("next emission returned %v, want the sticky push error", err)
	}
	if err := b.flush(); !errors.Is(err, errPushFailed) {
		t.Fatalf("flush returned %v, want the sticky push error", err)
	}
}

// TestPipelinedRunAcksAfterChildren runs gen → mid → sink over the recording
// transport with adaptive batching: gen emits fast enough to pipeline, mid
// emits two children per value, and sink's Final keeps the mid → sink edge
// from fusing. No delivery may be acknowledged before every child it emitted
// was pushed, gen's children must be pushed in emission order, and once
// Execute returns no pusher may be left — after a clean run, and after one
// whose transport starts failing mid-pipeline.
func TestPipelinedRunAcksAfterChildren(t *testing.T) {
	const n = 2000
	build := func() *graph.Graph {
		g := graph.New("pipelined")
		g.Add(func() core.PE {
			return core.NewSource("gen", func(ctx *core.Context) error {
				for i := 0; i < n; i++ {
					if err := ctx.EmitDefault(i); err != nil {
						return err
					}
				}
				return nil
			})
		})
		g.Add(func() core.PE {
			return core.NewEach("mid", func(ctx *core.Context, v any) error {
				for j := 0; j < 2; j++ {
					if err := ctx.EmitDefault(2*v.(int) + j); err != nil {
						return err
					}
				}
				return nil
			})
		})
		g.Add(func() core.PE { return &finalSink{Base: core.NewBase("sink", core.In(), nil)} })
		g.Pipe("gen", "mid")
		g.Pipe("mid", "sink")
		return g
	}
	run := func(tr *recordingTransport) error {
		g := build()
		opts := mapping.Options{Processes: 3, Platform: platform.Platform{Name: "test", Cores: 4}, Seed: 1}
		_, err := Execute(g, opts, Config{Name: "pipelined", Plan: PoolPlan(g, 3), Transport: tr,
			Host: platform.NewHost(opts.Platform), AdaptiveBatching: true})
		return err
	}

	t.Run("clean", func(t *testing.T) {
		tr := newRecordingTransport(200 * time.Microsecond)
		if err := run(tr); err != nil {
			t.Fatal(err)
		}
		if left := PushersRunning(); left != 0 {
			t.Fatalf("%d pushers still running after Execute returned", left)
		}
		pushed := map[string]map[int]bool{"mid": {}, "sink": {}}
		var genOrder []int
		piped := 0
		for _, ev := range tr.events {
			if !ev.ack {
				if ev.piped {
					piped++
				}
				for _, task := range ev.tasks {
					if v, ok := task.Value.(int); ok && pushed[task.PE] != nil {
						pushed[task.PE][v] = true
						if task.PE == "mid" {
							genOrder = append(genOrder, v)
						}
					}
				}
				continue
			}
			for _, task := range ev.tasks {
				var children []int
				switch {
				case task.PE == "gen" && !task.Finalize:
					for i := 0; i < n; i++ {
						children = append(children, i)
					}
				case task.PE == "mid":
					v := task.Value.(int)
					children = []int{2 * v, 2*v + 1}
				}
				dst := map[string]string{"gen": "mid", "mid": "sink"}[task.PE]
				for _, c := range children {
					if !pushed[dst][c] {
						t.Fatalf("%s delivery %v acknowledged before its child %d was pushed", task.PE, task.Value, c)
					}
				}
			}
		}
		if piped == 0 {
			t.Fatal("no push went through a pusher: the run did not pipeline")
		}
		if len(genOrder) != n || !slices.IsSorted(genOrder) {
			t.Fatalf("gen's %d children were pushed out of emission order", len(genOrder))
		}
	})

	t.Run("push fails mid-pipeline", func(t *testing.T) {
		tr := newRecordingTransport(200 * time.Microsecond)
		tr.failAt = 6
		if err := run(tr); !errors.Is(err, errPushFailed) {
			t.Fatalf("Execute returned %v, want the push error", err)
		}
		if left := PushersRunning(); left != 0 {
			t.Fatalf("%d pushers still running after the failed Execute returned", left)
		}
	})
}

// finalSink is a sink with a Final hook, which keeps edges into it unfused.
type finalSink struct{ core.Base }

func (*finalSink) Process(*core.Context, string, any) error { return nil }
func (*finalSink) Final(*core.Context) error                { return nil }

// TestPushCmdsEncodesPoolRunsInPlace: packing a multi-window pool batch
// allocates about what its wire frames occupy — the pool runs are encoded
// from sub-slices of the caller's tasks, not from a copy of them — and at
// Push's entry cap the batch lands as one stream entry per emit window.
func TestPushCmdsEncodesPoolRunsInPlace(t *testing.T) {
	srv, err := miniredis.StartTestServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cluster, err := redisclient.NewCluster([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	tr, err := NewRedisTransport(cluster, NewRunKeys("pushcmds", 1), NewPlan(make([]WorkerSpec, 1), map[string]int{"pe": 0}), false)
	if err != nil {
		t.Fatal(err)
	}
	const n, reps = 2 * autoBatchMax, 50
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{PE: "pe", Port: "in", Value: i, Instance: -1, Src: uint64(i + 1), Seq: uint64(i)}
	}
	frame, err := codec.EncodeBatch(tasks)
	if err != nil {
		t.Fatal(err)
	}
	var batches map[int]*shardCmds
	pack := func() {
		if batches, err = tr.pushCmds(tasks, autoBatchMax, -1); err != nil {
			t.Fatal(err)
		}
	}
	pack() // warms the pooled encode buffer
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for range reps {
		pack()
	}
	goruntime.ReadMemStats(&after)
	perTask := float64(after.TotalAlloc-before.TotalAlloc) / (reps * n)
	if frameBytes := float64(len(frame)) / n; perTask > frameBytes+16 {
		t.Fatalf("packing allocates %.1f B per task against %.1f B of frame per task: the tasks are copied", perTask, frameBytes)
	}
	if sc := batches[0]; sc == nil || len(sc.cmds) != n/autoBatchMax || sc.counted != n {
		t.Fatalf("%d pool tasks packed as %+v, want %d entries of %d", n, sc, n/autoBatchMax, autoBatchMax)
	}
}
