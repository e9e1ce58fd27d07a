package ingest

import (
	"fmt"
	"sync"

	"repro/internal/frame"
)

// DefaultQueueDepth bounds a live stream's pending-segment queue when
// NewStream is given no depth, as every server live stream is.
const DefaultQueueDepth = 4

// StreamStats reports a live stream's ingest activity.
type StreamStats struct {
	Submitted int64 // segments accepted by Submit
	Ingested  int64 // segments durably ingested and committed
	Failed    int64 // segments whose ingestion errored (dropped)
	Queued    int   // segments submitted but not yet ingested (incl. in flight)
	Stopped   bool
}

// Stream is a live per-stream ingest pipeline: a single goroutine drains a
// bounded segment queue, so segments of one stream are ingested strictly
// in submission order while distinct streams proceed concurrently. Submit
// blocks once the queue is full — backpressure toward the camera — and the
// heavy transcode work happens in the sink (the server fans it across a
// shared worker pool). All methods are safe for concurrent use.
type Stream struct {
	name string
	sink func([]*frame.Frame) error
	ch   chan []*frame.Frame
	quit chan struct{}
	done chan struct{}

	mu        sync.Mutex
	cond      *sync.Cond
	closed    bool
	queued    int
	submitted int64
	ingested  int64
	failed    int64
	firstErr  error
	pending   sync.WaitGroup // Submit calls past the closed check
}

// NewStream starts the pipeline for one stream. depth bounds the pending
// queue (<= 0 selects DefaultQueueDepth). sink ingests one full-fidelity
// segment durably; it is called from the stream's single worker goroutine,
// never concurrently for the same stream.
func NewStream(name string, depth int, sink func([]*frame.Frame) error) *Stream {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	st := &Stream{
		name: name,
		sink: sink,
		ch:   make(chan []*frame.Frame, depth),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	st.cond = sync.NewCond(&st.mu)
	go st.loop()
	return st
}

// Name returns the stream's name.
func (st *Stream) Name() string { return st.name }

// Submit enqueues one segment's full-fidelity frames, blocking while the
// queue is full. It fails once the stream is stopped. A sink error on an
// earlier segment does not fail Submit: segments are independent, and the
// first error is latched for Stop.
func (st *Stream) Submit(frames []*frame.Frame) error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return fmt.Errorf("ingest: stream %q is stopped", st.name)
	}
	st.pending.Add(1)
	st.submitted++
	st.queued++
	st.mu.Unlock()
	defer st.pending.Done()
	st.ch <- frames // backpressure: blocks while the queue is full
	return nil
}

func (st *Stream) loop() {
	defer close(st.done)
	for {
		select {
		case frames := <-st.ch:
			st.process(frames)
		case <-st.quit:
			// Stop has guaranteed no further sends: drain what is queued
			// and exit.
			for {
				select {
				case frames := <-st.ch:
					st.process(frames)
				default:
					return
				}
			}
		}
	}
}

func (st *Stream) process(frames []*frame.Frame) {
	err := st.sink(frames)
	st.mu.Lock()
	st.queued--
	if err != nil {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = fmt.Errorf("ingest: stream %q: %w", st.name, err)
		}
	} else {
		st.ingested++
	}
	st.cond.Broadcast()
	st.mu.Unlock()
}

// Drain blocks until every segment submitted so far has been ingested (or
// failed). The stream keeps accepting new segments.
func (st *Stream) Drain() {
	st.mu.Lock()
	for st.queued > 0 {
		st.cond.Wait()
	}
	st.mu.Unlock()
}

// Stop rejects further submissions, drains the queue, stops the worker,
// and returns the first sink error of the stream's lifetime. It is
// idempotent.
func (st *Stream) Stop() error {
	st.mu.Lock()
	already := st.closed
	st.closed = true
	st.mu.Unlock()
	if !already {
		// Submits past the closed check hold a pending slot until their
		// enqueue lands; after Wait no new sends can start, so the drain
		// loop's emptiness check is exact.
		st.pending.Wait()
		close(st.quit)
	}
	<-st.done
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.firstErr
}

// Err returns the first sink error latched so far (nil if none).
func (st *Stream) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.firstErr
}

// Stats returns a snapshot of the stream's counters.
func (st *Stream) Stats() StreamStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return StreamStats{
		Submitted: st.submitted,
		Ingested:  st.ingested,
		Failed:    st.failed,
		Queued:    st.queued,
		Stopped:   st.closed,
	}
}
