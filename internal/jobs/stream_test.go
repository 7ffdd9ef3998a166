package jobs

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"testing"
	"time"

	"repro/internal/stream"
)

// terminalLine matches the log lines a job's move to a terminal state
// writes: done, failed or cancelled. Each is logged with no orchestrator
// lock held.
var terminalLine = regexp.MustCompile(`^jobs: job=(\S+) key=\S+ (done|failed|cancelled)`)

// TestTerminalStatusReplaysTerminalFrame: once a status read sees a
// terminal state, a client that subscribes to the job's stream must be
// replayed the terminal frame, never a stale progress frame. The check
// runs inside the orchestrator's log hook on each terminal line, which
// is logged after the job settles, and covers all three ways a job
// settles: a run that finishes, a queued job cancelled, and a running
// job cancelled.
func TestTerminalStatusReplaysTerminalFrame(t *testing.T) {
	hub := stream.New(stream.Options{})
	type check struct{ id, first string } // first: the first replayed event
	// One check per job the test settles, so the hook never blocks.
	checks := make(chan check, 3)
	var o *Orchestrator
	logf := func(format string, args ...any) {
		m := terminalLine.FindStringSubmatch(fmt.Sprintf(format, args...))
		if m == nil {
			return
		}
		id := m[1]
		if s, _ := o.Status(id); s == nil || !s.State.Terminal() {
			checks <- check{id, "no terminal status"}
			return
		}
		sub, err := hub.Subscribe(id, 0)
		if err != nil {
			checks <- check{id, err.Error()}
			return
		}
		defer sub.Close()
		select {
		case f, ok := <-sub.Frames():
			switch {
			case !ok:
				checks <- check{id, "no frame"}
			case !f.Terminal:
				checks <- check{id, f.Event + " (not terminal)"}
			default:
				checks <- check{id, f.Event}
			}
		default:
			checks <- check{id, "no frame"}
		}
	}
	o = New(Options{Workers: 1, QueueDepth: 4, Stream: hub, Logf: logf})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		o.Close(ctx)
	})

	finished, err := o.Submit(smallSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, o, finished.ID)

	long := Spec{Reliability: &ReliabilitySpec{
		Scheme: "Citadel", Trials: 2_000_000, CheckpointTrials: 100000, Workers: 1, Seed: 22, TSVFIT: 1430,
	}}
	running, err := o.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if s, _ := o.Status(running.ID); s.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long job never started")
		}
		runtime.Gosched()
	}
	queued, err := o.Submit(smallSpec(23))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Cancel(queued.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if err := o.Cancel(running.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}

	want := map[string]string{finished.ID: "done", queued.ID: "cancelled", running.ID: "cancelled"}
	for range len(want) {
		select {
		case c := <-checks:
			if w, ok := want[c.id]; !ok || c.first != w {
				t.Errorf("job %s: first frame replayed after a terminal status is %q, want %q", c.id, c.first, w)
			}
			delete(want, c.id)
		case <-time.After(time.Minute):
			t.Fatalf("the log hook never saw these jobs settle: %v", want)
		}
	}
}
