package fill

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dummyfill/internal/layout"
)

// streamTopologies are the workers × shards inputs the stream tests run
// on: one shard, fewer workers than shards, and more workers than shards.
// Every input sizes and emits through the same reorder buffer; shards only
// partition planning. The names are stable test labels.
var streamTopologies = []struct {
	name            string
	workers, shards int
}{
	{"unsharded", 4, 1},
	{"chained", 2, 4},
	{"groups", 8, 2},
}

// leakCheck records the goroutine count and fails the test if it has not
// returned to baseline (with small slack for runtime helpers) by cleanup.
func leakCheck(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= base+2 {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Errorf("goroutines leaked: %d at start, %d after", base, runtime.NumGoroutine())
	})
}

// TestRunStreamCancelMidStream cancels the run's context from inside the
// sink after a few windows have been emitted, on every input. The run
// must abort with the context's error — never a hang, never a corrupted
// nil — with all worker and watcher goroutines unwound; the same engine
// must then produce the full canonical output on a clean rerun (worker
// scratches and pooled state survive the abort uncorrupted).
func TestRunStreamCancelMidStream(t *testing.T) {
	for _, topo := range streamTopologies {
		t.Run(topo.name, func(t *testing.T) {
			leakCheck(t)
			lay := gradientLayout()
			opts := DefaultOptions()
			opts.Workers = topo.workers
			opts.Shards = topo.shards
			e, err := New(lay, opts)
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			emitted := 0
			_, err = e.RunStream(ctx, SinkFunc(func(k int, fs []layout.Fill) error {
				emitted++
				if emitted == 3 {
					// A client hanging up mid-response: cancel, then let the
					// emit itself succeed — the abort must come from the
					// pipeline noticing the dead context, not from us.
					cancel()
					<-ctx.Done()
				}
				return nil
			}))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("RunStream after mid-stream cancel: err = %v, want context.Canceled", err)
			}
			// Emits are serialized and each one checks the run's context
			// first, so nothing reaches the sink after the cancelling emit,
			// not even windows already sized and buffered.
			if emitted != 3 {
				t.Fatalf("%d windows emitted, want exactly 3 after cancellation at emit 3", emitted)
			}

			// Clean rerun on the same engine: canonical order, full output.
			var ks []int
			res, err := e.RunStream(context.Background(), SinkFunc(func(k int, fs []layout.Fill) error {
				ks = append(ks, k)
				return nil
			}))
			if err != nil {
				t.Fatalf("rerun after aborted run: %v", err)
			}
			assertAscending(t, ks, topo.name+" rerun")
			if res.Health.Sized+res.Health.Skipped != res.Windows {
				t.Fatalf("rerun health inconsistent: %+v", res.Health)
			}
		})
	}
}

// TestRunStreamEmitterFaultPropagates injects a sink failure partway
// through emission on every input: the run must return exactly that
// error (wrapped or not), stop emitting, and leave no goroutines behind —
// deliverers blocked on a full reorder buffer included.
func TestRunStreamEmitterFaultPropagates(t *testing.T) {
	sentinel := fmt.Errorf("downstream writer failed")
	for _, topo := range streamTopologies {
		t.Run(topo.name, func(t *testing.T) {
			leakCheck(t)
			lay := gradientLayout()
			opts := DefaultOptions()
			opts.Workers = topo.workers
			opts.Shards = topo.shards
			e, err := New(lay, opts)
			if err != nil {
				t.Fatal(err)
			}
			emitted, afterFault := 0, 0
			_, err = e.RunStream(context.Background(), SinkFunc(func(k int, fs []layout.Fill) error {
				if emitted++; emitted == 4 {
					return sentinel
				}
				if emitted > 4 {
					afterFault++
				}
				return nil
			}))
			if !errors.Is(err, sentinel) {
				t.Fatalf("RunStream with failing sink: err = %v, want %v", err, sentinel)
			}
			if afterFault != 0 {
				t.Fatalf("sink called %d times after it failed", afterFault)
			}
		})
	}
}

// TestRunStreamCancelledBeforeStart: a dead context aborts before any
// window is prepared or emitted.
func TestRunStreamCancelledBeforeStart(t *testing.T) {
	e, err := New(gradientLayout(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = e.RunStream(ctx, SinkFunc(func(int, []layout.Fill) error {
		t.Error("sink called under a pre-cancelled context")
		return nil
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestReorderBufferDeliverAfterAbortReturnsCause: deliverers arriving
// after an abort get the abort cause back, not a hang or a nil.
func TestReorderBufferDeliverAfterAbortReturnsCause(t *testing.T) {
	cause := fmt.Errorf("run aborted")
	rb := newReorderBuffer(2, func(int, []layout.Fill) error { return nil })
	rb.abort(cause)
	if err := rb.deliver(0, nil); !errors.Is(err, cause) {
		t.Fatalf("deliver after abort: err = %v, want %v", err, cause)
	}
	// Abort keeps the first cause even if aborted again.
	rb.abort(fmt.Errorf("second cause"))
	if err := rb.deliver(1, nil); !errors.Is(err, cause) {
		t.Fatalf("deliver after double abort: err = %v, want first cause %v", err, cause)
	}
}

// TestNewRejectsNegativeBudget: a negative soft budget is a caller bug
// (usually an elapsed-deadline subtraction), never "unlimited".
func TestNewRejectsNegativeBudget(t *testing.T) {
	opts := DefaultOptions()
	opts.Budget = -time.Second
	if _, err := New(gradientLayout(), opts); err == nil {
		t.Fatal("New accepted a negative Budget")
	}
	opts.Budget = 0
	if _, err := New(gradientLayout(), opts); err != nil {
		t.Fatalf("New rejected a zero (unlimited) Budget: %v", err)
	}
}
