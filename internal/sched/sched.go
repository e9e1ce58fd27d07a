// Package sched provides the bounded worker pool the execution paths
// share. It is a leaf package — everything above it (codec GOP-parallel
// decode, retrieval fan-out, the query engine, streaming ingest, shard
// compaction) schedules onto the same primitive without import cycles.
package sched

import (
	"runtime"
	"sync"
)

// Pool is a bounded worker pool: at most its configured number of tasks run
// concurrently, and Go blocks once the pool is saturated, so a producer
// enqueueing thousands of segments never builds an unbounded goroutine
// backlog. It is the execution substrate of the parallel query engine and
// the GOP-parallel decoder.
type Pool struct {
	sem chan struct{}
	wg  sync.WaitGroup
}

// NewPool returns a pool running at most workers tasks concurrently;
// workers <= 0 selects runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// Go schedules fn on the pool, blocking until a worker slot frees up.
// Tasks must not themselves schedule onto the same pool with Go: a task
// waiting on a slot it transitively holds would deadlock. Batch.TryGo,
// which never waits for a slot, is the exception.
func (p *Pool) Go(fn func()) {
	p.wg.Add(1)
	p.sem <- struct{}{}
	go func() {
		defer p.wg.Done()
		defer func() { <-p.sem }()
		fn()
	}()
}

// Wait blocks until every scheduled task has finished.
func (p *Pool) Wait() { p.wg.Wait() }

// Batch groups tasks scheduled on a shared pool so one caller can wait for
// just its own tasks while slot accounting stays pool-wide. This is how
// concurrent ingest streams share a single transcode pool, and how one
// segment's GOP-parallel decode waits for just its own GOPs.
type Batch struct {
	p  *Pool
	wg sync.WaitGroup
}

// Batch returns a new empty batch on the pool.
func (p *Pool) Batch() *Batch { return &Batch{p: p} }

// Go schedules fn on the underlying pool, blocking until a slot frees up.
// The same transitive-scheduling caveat as Pool.Go applies.
func (b *Batch) Go(fn func()) {
	b.p.sem <- struct{}{}
	b.run(fn)
}

// TryGo starts fn on the underlying pool if a worker slot is free, and
// reports whether it did. It never blocks, so a task may call it on its
// own pool to lend itself workers that would otherwise sit idle.
func (b *Batch) TryGo(fn func()) bool {
	select {
	case b.p.sem <- struct{}{}:
		b.run(fn)
		return true
	default:
		return false
	}
}

// run starts fn in the slot its caller took, and frees the slot when fn
// returns.
func (b *Batch) run(fn func()) {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		defer func() { <-b.p.sem }()
		fn()
	}()
}

// Wait blocks until every task scheduled through this batch has finished,
// its worker slot free again; other batches' and Pool.Go tasks are not
// waited for.
func (b *Batch) Wait() { b.wg.Wait() }

// Ordered runs fn(i) for every i in [0, n) and returns the results in index
// order, cut after the first index whose fn failed, with that error. With
// workers == 1 or n <= 1 it runs inline and stops there; otherwise every
// index runs, on a pool of at most workers tasks (workers <= 0 selects
// GOMAXPROCS). Either way a caller folding the returned slice in order sees
// exactly what a sequential loop that stops at its first error would have
// seen — the fold is written once and is byte-identical at any worker count.
func Ordered[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	n = max(n, 0)
	out := make([]T, n)
	errs := make([]error, n)
	if workers == 1 || n <= 1 {
		for i := range out {
			if out[i], errs[i] = fn(i); errs[i] != nil {
				break
			}
		}
	} else {
		p := NewPool(workers)
		for i := range out {
			p.Go(func() { out[i], errs[i] = fn(i) })
		}
		p.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return out[:i+1], err
		}
	}
	return out, nil
}
