// Package stream is the push side of the result plane: a per-topic
// subscriber hub that broadcasts job progress and results as
// Server-Sent Events frames.
//
// The hub exists to make fan-out cheap at high subscriber counts. Each
// published snapshot is JSON-marshalled exactly once and rendered into a
// single SSE wire frame ([]byte); every subscriber receives the same
// shared slice, so the cost of a publish is one marshal plus N channel
// sends regardless of N (see TestPublishAllocsIndependentOfSubscribers).
//
// Backpressure follows the PR-1 discipline: subscribers own bounded
// buffers, intermediate progress frames coalesce latest-wins when a
// buffer is full (a dashboard that missed three snapshots only wants the
// newest one), and a subscriber that keeps forcing coalescing is evicted
// instead of buffered without bound. Terminal frames — the done/failed/
// cancelled snapshot, or the drain notice on SIGTERM — are never
// dropped: the publisher makes room by discarding stale progress frames,
// so every surviving subscriber observes how its job ended.
package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"strconv"
	"sync"
)

// Subscription errors.
var (
	// ErrSubscriberLimit rejects a subscribe past Options.MaxSubscribers.
	// The HTTP layer maps it to 429 with a Retry-After hint.
	ErrSubscriberLimit = errors.New("stream: subscriber limit reached")
)

// DrainEvent is the event name of the terminal frame Drain broadcasts:
// the server is shutting down and the client should reconnect elsewhere
// (or poll the durable job store once the process returns).
const DrainEvent = "drain"

// Options tunes a Hub. The zero value selects production defaults.
type Options struct {
	// MaxSubscribers caps concurrent subscribers across all topics
	// (default 16384). Subscribe past it fails with ErrSubscriberLimit.
	MaxSubscribers int
	// BufferFrames is the per-subscriber ring capacity (default 8).
	// Progress frames past it coalesce latest-wins.
	BufferFrames int
	// MaxCoalesced evicts a subscriber after this many consecutive
	// coalesced (dropped-oldest) progress frames (default 1024): a
	// client that far behind is holding a connection, not reading it.
	MaxCoalesced int
	// Logf sinks eviction notices (default log.Printf).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxSubscribers <= 0 {
		o.MaxSubscribers = 16384
	}
	if o.BufferFrames <= 0 {
		o.BufferFrames = 8
	}
	if o.MaxCoalesced <= 0 {
		o.MaxCoalesced = 1024
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// Frame is one rendered SSE event. Data is the complete wire form
// ("id: N\nevent: e\ndata: {...}\n\n"), shared by every subscriber of
// the topic — handlers write it verbatim and must not mutate it.
type Frame struct {
	// ID is the topic-scoped event sequence number, echoed by clients in
	// Last-Event-ID to resume.
	ID uint64
	// Event is the SSE event name ("progress", "done", "failed",
	// "cancelled", DrainEvent).
	Event string
	// Terminal marks the topic's final frame; no frames follow it.
	Terminal bool
	// Data is the rendered SSE frame, ready to write to the client.
	Data []byte
}

// topic is one broadcast group (one job).
type topic struct {
	mu       sync.Mutex
	subs     map[*Subscriber]struct{}
	seq      uint64
	latest   Frame // most recent frame, replayed to (re)subscribers
	terminal bool
	// final is the terminal publish's value. Once the terminal frame has
	// reached the live subscribers the topic keeps only this value:
	// latest.Data and subs are dropped, and a late subscriber gets the
	// frame rendered again from final (see terminalFrame).
	final any
}

// terminalFrame renders a finished topic's terminal frame again from the
// retained value: the same ID, event and bytes the live subscribers got.
func (t *topic) terminalFrame() (Frame, error) {
	data, err := json.Marshal(t.final)
	if err != nil {
		return Frame{}, err
	}
	f := t.latest
	f.Data = renderFrame(f.ID, f.Event, data)
	return f, nil
}

// Hub fans published frames out to per-topic subscribers.
type Hub struct {
	opts Options

	mu     sync.Mutex
	topics map[string]*topic
	nsubs  int
}

// New builds a Hub.
func New(opts Options) *Hub {
	return &Hub{opts: opts.withDefaults(), topics: make(map[string]*topic)}
}

// Subscribers returns the current subscriber count across all topics.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nsubs
}

// topicFor returns (creating if needed) the named topic.
func (h *Hub) topicFor(id string) *topic {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.topics[id]
	if t == nil {
		t = &topic{subs: make(map[*Subscriber]struct{})}
		h.topics[id] = t
	}
	return t
}

// renderFrame builds the SSE wire bytes once per publish; subscribers
// share the result.
func renderFrame(id uint64, event string, data []byte) []byte {
	buf := make([]byte, 0, len(data)+len(event)+32)
	buf = append(buf, "id: "...)
	buf = strconv.AppendUint(buf, id, 10)
	buf = append(buf, "\nevent: "...)
	buf = append(buf, event...)
	buf = append(buf, "\ndata: "...)
	buf = append(buf, data...) // json.Marshal output never contains raw newlines
	buf = append(buf, "\n\n"...)
	return buf
}

// Publish marshals v exactly once, renders one shared SSE frame, and
// fans it out to every subscriber of the topic. A terminal publish
// closes the topic: subscribers receive the frame and are detached, and
// later publishes to the topic are ignored (the snapshot after "done"
// carries no new information). Publishing to a topic nobody has touched
// creates it, so late subscribers can replay the latest snapshot.
//
// A finished topic lives as long as the hub, so it keeps the terminal
// value v rather than a second, rendered copy of it, and renders the
// frame again for each late subscriber. The caller must not mutate a
// terminal v after Publish returns.
func (h *Hub) Publish(topicID, event string, v any, terminal bool) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("stream: encoding %s event: %w", event, err)
	}
	t := h.topicFor(topicID)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.terminal {
		return nil
	}
	t.seq++
	f := Frame{ID: t.seq, Event: event, Terminal: terminal, Data: renderFrame(t.seq, event, data)}
	t.latest = f
	if terminal {
		t.terminal = true
	}
	mPublishes.Inc()
	var detached int
	for sub := range t.subs {
		if !h.pushLocked(t, sub, f) {
			continue // evicted inside pushLocked
		}
		if terminal {
			sub.closed = true
			close(sub.ch)
			delete(t.subs, sub)
			detached++
		}
	}
	if detached > 0 {
		h.mu.Lock()
		h.nsubs -= detached
		h.mu.Unlock()
		mSubscribers.Add(int64(-detached))
	}
	if terminal {
		t.final = v
		t.latest.Data = nil
		t.subs = nil
	}
	return nil
}

// pushLocked delivers f to sub, coalescing latest-wins when the buffer
// is full. Terminal frames always land: stale progress frames are
// discarded until there is room (the publisher is the only sender and
// the consumer only drains, so room appears after one drop). A
// subscriber that exceeds MaxCoalesced consecutive drops on a progress
// frame is evicted. Callers hold t.mu; reports false if sub was evicted.
func (h *Hub) pushLocked(t *topic, sub *Subscriber, f Frame) bool {
	dropped := false
	for {
		select {
		case sub.ch <- f:
			mFrames.Inc()
			// Only a clean send proves the consumer is keeping up: a send
			// that needed a drop first always succeeds (the publisher is
			// the only sender), so resetting on it would mask a stuck
			// client forever.
			if !dropped {
				sub.coalesced = 0
			}
			return true
		default:
		}
		select {
		case <-sub.ch:
			mCoalesced.Inc()
			dropped = true
			sub.coalesced++
			if !f.Terminal && sub.coalesced >= h.opts.MaxCoalesced {
				h.evictLocked(t, sub)
				return false
			}
		default:
			// The consumer drained between the two selects; retry the send.
		}
	}
}

// evictLocked detaches a subscriber that stopped draining. Callers hold
// t.mu.
func (h *Hub) evictLocked(t *topic, sub *Subscriber) {
	sub.closed = true
	sub.evicted = true
	close(sub.ch)
	delete(t.subs, sub)
	h.mu.Lock()
	h.nsubs--
	h.mu.Unlock()
	mSubscribers.Dec()
	mEvicted.Inc()
	h.opts.Logf("stream: evicted subscriber of %s (%d consecutive coalesced frames)",
		sub.topicID, sub.coalesced)
}

// Subscriber is one client's bounded view of a topic's frame stream.
type Subscriber struct {
	h       *Hub
	t       *topic
	topicID string
	ch      chan Frame

	// coalesced counts consecutive dropped-oldest frames; guarded by
	// t.mu.
	coalesced int
	// closed guards against double-close across Publish/evict/Close;
	// guarded by t.mu.
	closed bool
	// evicted marks a hub-side close for slowness; guarded by t.mu
	// before close, read-only after Frames is closed.
	evicted bool
}

// Frames returns the subscriber's frame channel. It is closed after the
// terminal frame is delivered, or without one when the subscriber was
// evicted (see Evicted).
func (s *Subscriber) Frames() <-chan Frame { return s.ch }

// Evicted reports whether the hub closed this subscriber for falling too
// far behind. Only meaningful after Frames is closed.
func (s *Subscriber) Evicted() bool {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.evicted
}

// Close detaches the subscriber (client disconnect). Safe to call after
// the hub already closed it.
func (s *Subscriber) Close() {
	s.t.mu.Lock()
	if s.closed {
		s.t.mu.Unlock()
		return
	}
	s.closed = true
	close(s.ch)
	delete(s.t.subs, s)
	s.t.mu.Unlock()
	s.h.mu.Lock()
	s.h.nsubs--
	s.h.mu.Unlock()
	mSubscribers.Dec()
}

// Subscribe attaches a subscriber to the topic. lastEventID is the
// client's Last-Event-ID (0 for a fresh connection): when the topic's
// latest frame is newer, it is replayed immediately so a resuming client
// catches up from one frame — the hub keeps only the latest snapshot per
// topic, not a history, because snapshots are cumulative. Subscribing to
// an already-terminal topic delivers the terminal frame, rendered again
// from the retained value (unless the client confirmed seeing it), and
// closes the channel at once.
func (h *Hub) Subscribe(topicID string, lastEventID uint64) (*Subscriber, error) {
	h.mu.Lock()
	if h.nsubs >= h.opts.MaxSubscribers {
		h.mu.Unlock()
		mRejected.Inc()
		return nil, ErrSubscriberLimit
	}
	h.nsubs++
	h.mu.Unlock()
	mSubscribers.Inc()
	t := h.topicFor(topicID)
	sub := &Subscriber{h: h, t: t, topicID: topicID, ch: make(chan Frame, h.opts.BufferFrames)}
	t.mu.Lock()
	defer t.mu.Unlock()
	replay := t.latest.ID > 0 && t.latest.ID != lastEventID
	if t.terminal {
		if replay {
			if f, err := t.terminalFrame(); err != nil {
				h.opts.Logf("stream: replaying the terminal frame of %s: %v", topicID, err)
			} else {
				sub.ch <- f
				mFrames.Inc()
			}
		}
		sub.closed = true
		close(sub.ch)
		h.mu.Lock()
		h.nsubs--
		h.mu.Unlock()
		mSubscribers.Dec()
		return sub, nil
	}
	if replay {
		sub.ch <- t.latest
		mFrames.Inc()
	}
	t.subs[sub] = struct{}{}
	return sub, nil
}

// Drain broadcasts a terminal DrainEvent frame carrying v to every
// non-terminal topic: the process is shutting down, so streaming clients
// learn they were cut off by the server rather than the network. The
// server calls it on SIGTERM before closing listeners.
func (h *Hub) Drain(v any) {
	// Collect IDs under h.mu only: Publish acquires t.mu then h.mu, so
	// touching t.mu here would invert the lock order. Publish already
	// ignores terminal topics.
	h.mu.Lock()
	ids := make([]string, 0, len(h.topics))
	for id := range h.topics {
		ids = append(ids, id)
	}
	h.mu.Unlock()
	for _, id := range ids {
		if err := h.Publish(id, DrainEvent, v, true); err != nil {
			h.opts.Logf("stream: drain %s: %v", id, err)
		}
	}
}
