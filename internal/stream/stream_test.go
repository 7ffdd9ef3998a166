package stream

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func quiet(string, ...any) {}

func newHub(opts Options) *Hub {
	if opts.Logf == nil {
		opts.Logf = quiet
	}
	return New(opts)
}

// recv pulls one frame or fails the test after a timeout.
func recv(t *testing.T, sub *Subscriber) Frame {
	t.Helper()
	select {
	case f, ok := <-sub.Frames():
		if !ok {
			t.Fatalf("frames channel closed while expecting a frame")
		}
		return f
	case <-time.After(2 * time.Second):
		t.Fatalf("timed out waiting for a frame")
	}
	panic("unreachable")
}

// recvClosed asserts the channel closes without another frame.
func recvClosed(t *testing.T, sub *Subscriber) {
	t.Helper()
	select {
	case f, ok := <-sub.Frames():
		if ok {
			t.Fatalf("expected closed channel, got frame id=%d event=%s", f.ID, f.Event)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("timed out waiting for channel close")
	}
}

type snap struct {
	Trials int `json:"trials"`
}

func TestFanoutSharesOneFrame(t *testing.T) {
	h := newHub(Options{})
	subs := make([]*Subscriber, 8)
	for i := range subs {
		s, err := h.Subscribe("job-1", 0)
		if err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
		subs[i] = s
	}
	if got := h.Subscribers(); got != len(subs) {
		t.Fatalf("Subscribers() = %d, want %d", got, len(subs))
	}
	if err := h.Publish("job-1", "progress", snap{Trials: 42}, false); err != nil {
		t.Fatalf("publish: %v", err)
	}
	var first Frame
	for i, s := range subs {
		f := recv(t, s)
		if i == 0 {
			first = f
			want := "id: 1\nevent: progress\ndata: {\"trials\":42}\n\n"
			if string(f.Data) != want {
				t.Fatalf("frame data = %q, want %q", f.Data, want)
			}
			continue
		}
		// Same backing array, not a copy: the single-marshal contract.
		if &f.Data[0] != &first.Data[0] {
			t.Fatalf("subscriber %d received a copied frame", i)
		}
	}
	for _, s := range subs {
		s.Close()
	}
	if got := h.Subscribers(); got != 0 {
		t.Fatalf("Subscribers() after close = %d, want 0", got)
	}
}

func TestCoalescingKeepsLatest(t *testing.T) {
	h := newHub(Options{BufferFrames: 2})
	sub, err := h.Subscribe("job-1", 0)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer sub.Close()
	for i := 1; i <= 10; i++ {
		if err := h.Publish("job-1", "progress", snap{Trials: i}, false); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	// Buffer held 2; drop-oldest means the tail of the stream survives.
	f1, f2 := recv(t, sub), recv(t, sub)
	if f1.ID != 9 || f2.ID != 10 {
		t.Fatalf("coalesced frames = %d,%d, want 9,10", f1.ID, f2.ID)
	}
}

func TestTerminalNeverDropped(t *testing.T) {
	h := newHub(Options{BufferFrames: 1})
	sub, err := h.Subscribe("job-1", 0)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	for i := 1; i <= 5; i++ {
		h.Publish("job-1", "progress", snap{Trials: i}, false)
	}
	if err := h.Publish("job-1", "done", snap{Trials: 5}, true); err != nil {
		t.Fatalf("terminal publish: %v", err)
	}
	f := recv(t, sub)
	if !f.Terminal || f.Event != "done" {
		t.Fatalf("frame = %+v, want terminal done", f)
	}
	recvClosed(t, sub)
	if sub.Evicted() {
		t.Fatal("terminal delivery flagged as eviction")
	}
	if got := h.Subscribers(); got != 0 {
		t.Fatalf("Subscribers() after terminal = %d, want 0", got)
	}
	// Publishing past terminal is a silent no-op.
	if err := h.Publish("job-1", "progress", snap{}, false); err != nil {
		t.Fatalf("post-terminal publish: %v", err)
	}
}

func TestSlowSubscriberEvicted(t *testing.T) {
	h := newHub(Options{BufferFrames: 1, MaxCoalesced: 3})
	sub, err := h.Subscribe("job-1", 0)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	for i := 1; i <= 10; i++ {
		h.Publish("job-1", "progress", snap{Trials: i}, false)
	}
	// Drain whatever landed before eviction; the channel must end closed.
	for range sub.Frames() {
	}
	if !sub.Evicted() {
		t.Fatal("slow subscriber was not evicted")
	}
	if got := h.Subscribers(); got != 0 {
		t.Fatalf("Subscribers() after eviction = %d, want 0", got)
	}
	// Eviction is not fatal to the topic: a fresh subscriber still works.
	sub2, err := h.Subscribe("job-1", 0)
	if err != nil {
		t.Fatalf("resubscribe: %v", err)
	}
	if f := recv(t, sub2); f.ID != 10 {
		t.Fatalf("replayed frame id = %d, want 10", f.ID)
	}
	sub2.Close()
}

func TestResumeReplaysLatestOnly(t *testing.T) {
	h := newHub(Options{})
	for i := 1; i <= 3; i++ {
		h.Publish("job-1", "progress", snap{Trials: i}, false)
	}
	// A client that saw frame 1 gets frame 3 immediately — not 2 then 3.
	sub, err := h.Subscribe("job-1", 1)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if f := recv(t, sub); f.ID != 3 {
		t.Fatalf("replayed frame id = %d, want 3", f.ID)
	}
	select {
	case f := <-sub.Frames():
		t.Fatalf("unexpected second replay frame id=%d", f.ID)
	default:
	}
	sub.Close()

	// A client that already saw the latest frame gets nothing replayed.
	sub2, err := h.Subscribe("job-1", 3)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	select {
	case f := <-sub2.Frames():
		t.Fatalf("replay to an up-to-date client: frame id=%d", f.ID)
	default:
	}
	sub2.Close()
}

// TestSubscribeTerminalTopic also pins the retention rule of a finished
// topic: it drops its rendered frame and subscriber set, keeps the
// published value, and renders the same bytes again for a late subscriber.
func TestSubscribeTerminalTopic(t *testing.T) {
	h := newHub(Options{})
	live, err := h.Subscribe("job-1", 0)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	h.Publish("job-1", "progress", snap{Trials: 1}, false)
	h.Publish("job-1", "done", snap{Trials: 2}, true)
	recv(t, live)
	final := recv(t, live)
	recvClosed(t, live)

	tp := h.topicFor("job-1")
	tp.mu.Lock()
	data, subs := tp.latest.Data, tp.subs
	tp.mu.Unlock()
	if data != nil || subs != nil {
		t.Fatalf("finished topic still holds %d frame bytes and %d subscribers", len(data), len(subs))
	}

	// Late subscriber: terminal frame delivered, then closed.
	sub, err := h.Subscribe("job-1", 0)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if f := recv(t, sub); !f.Terminal || f.ID != 2 || f.Event != "done" || string(f.Data) != string(final.Data) {
		t.Fatalf("late frame = {%d %s %v %q}, live subscriber got {%d %s %v %q}",
			f.ID, f.Event, f.Terminal, f.Data, final.ID, final.Event, final.Terminal, final.Data)
	}
	recvClosed(t, sub)

	// Client that confirmed the terminal frame: closed with no replay.
	sub2, err := h.Subscribe("job-1", 2)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	recvClosed(t, sub2)
	if got := h.Subscribers(); got != 0 {
		t.Fatalf("Subscribers() = %d, want 0", got)
	}
}

func TestSubscriberLimit(t *testing.T) {
	h := newHub(Options{MaxSubscribers: 1})
	sub, err := h.Subscribe("job-1", 0)
	if err != nil {
		t.Fatalf("first subscribe: %v", err)
	}
	if _, err := h.Subscribe("job-2", 0); !errors.Is(err, ErrSubscriberLimit) {
		t.Fatalf("second subscribe err = %v, want ErrSubscriberLimit", err)
	}
	sub.Close()
	if _, err := h.Subscribe("job-2", 0); err != nil {
		t.Fatalf("subscribe after close: %v", err)
	}
}

func TestDrainBroadcastsTerminal(t *testing.T) {
	h := newHub(Options{})
	a, _ := h.Subscribe("job-a", 0)
	b, _ := h.Subscribe("job-b", 0)
	h.Publish("job-a", "progress", snap{Trials: 1}, false)
	recv(t, a) // leave a clean buffer so the drain frame is next

	h.Drain(map[string]string{"status": "draining"})
	for name, sub := range map[string]*Subscriber{"a": a, "b": b} {
		f := recv(t, sub)
		if !f.Terminal || f.Event != DrainEvent {
			t.Fatalf("subscriber %s: frame = %+v, want terminal %s", name, f, DrainEvent)
		}
		if !strings.Contains(string(f.Data), `"status":"draining"`) {
			t.Fatalf("subscriber %s: drain payload missing: %q", name, f.Data)
		}
		recvClosed(t, sub)
	}
	if got := h.Subscribers(); got != 0 {
		t.Fatalf("Subscribers() after drain = %d, want 0", got)
	}
}

// TestPublishAllocsIndependentOfSubscribers pins the single-marshal
// contract: the allocations of one publish must not grow with the
// subscriber count, because every subscriber shares the one rendered
// frame. If a per-subscriber copy or re-encoding sneaks in, the
// high-subscriber measurement jumps and this fails.
func TestPublishAllocsIndependentOfSubscribers(t *testing.T) {
	allocsWith := func(n int) float64 {
		h := newHub(Options{
			MaxSubscribers: n,
			BufferFrames:   4,
			MaxCoalesced:   1 << 30, // coalesce forever, never evict
		})
		for i := 0; i < n; i++ {
			if _, err := h.Subscribe("job-1", 0); err != nil {
				t.Fatalf("subscribe %d: %v", i, err)
			}
		}
		trials := 0
		return testing.AllocsPerRun(200, func() {
			trials++
			if err := h.Publish("job-1", "progress", snap{Trials: trials}, false); err != nil {
				t.Fatalf("publish: %v", err)
			}
		})
	}
	one, many := allocsWith(1), allocsWith(1024)
	if many > one+1 {
		t.Fatalf("publish allocs grew with subscribers: %0.1f at 1 sub, %0.1f at 1024", one, many)
	}
	t.Logf("publish allocs: %.1f at 1 subscriber, %.1f at 1024", one, many)
}

// BenchmarkBroadcastFanout measures fan-out throughput: frames/s is
// total frames delivered to subscribers per second of publishing, the
// unit cmd/benchjson gates.
func BenchmarkBroadcastFanout(b *testing.B) {
	for _, nsubs := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("subs=%d", nsubs), func(b *testing.B) {
			h := newHub(Options{
				MaxSubscribers: nsubs,
				BufferFrames:   64,
				MaxCoalesced:   1 << 30,
			})
			subs := make([]*Subscriber, nsubs)
			for i := range subs {
				s, err := h.Subscribe("job-1", 0)
				if err != nil {
					b.Fatal(err)
				}
				subs[i] = s
			}
			var wg sync.WaitGroup
			for _, s := range subs {
				wg.Add(1)
				go func(s *Subscriber) {
					defer wg.Done()
					for range s.Frames() {
					}
				}(s)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Publish("job-1", "progress", snap{Trials: i}, false)
			}
			b.StopTimer()
			delivered := float64(b.N) * float64(nsubs) // enqueue work; coalescing trims writes, not fan-out cost
			b.ReportMetric(delivered/b.Elapsed().Seconds(), "frames/s")
			h.Publish("job-1", "done", snap{}, true)
			wg.Wait()
		})
	}
}
