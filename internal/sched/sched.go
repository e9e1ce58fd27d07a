// Package sched provides the bounded worker pool the execution paths
// share, and Ordered, the one fan-out over it. It is a leaf package —
// everything above it (codec GOP-parallel decode, retrieval, the query
// engine, streaming ingest, shard compaction) schedules onto the same
// primitive without import cycles. A query makes one pool per run and
// lends from it at every level: segments, each segment's GOPs and frame
// chunks all fan out through Ordered, whose helpers take only free slots.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded set of worker slots: at most its configured number of
// tasks run on it at once. Tasks start through a Batch.
type Pool struct {
	sem chan struct{}
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

// Batch groups tasks scheduled on a shared pool so one caller can wait for
// just its own tasks while slot accounting stays pool-wide. This is how
// concurrent ingest streams share a single transcode pool, and how one
// fan-out waits for just the helpers it lent itself.
type Batch struct {
	p  *Pool
	wg sync.WaitGroup
}

// Batch returns a new empty batch on the pool.
func (p *Pool) Batch() *Batch { return &Batch{p: p} }

// Go schedules fn on the underlying pool, blocking until a slot frees up.
// Only a caller that holds no slot of the pool may wait for one.
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
// its worker slot free again; other batches' tasks are not waited for.
func (b *Batch) Wait() { b.wg.Wait() }

// Ordered runs fn(i) for every i in [0, n) and returns the results in index
// order, cut after the first index whose fn failed, with that error. With a
// nil pool it runs inline and stops there. On a pool every index runs: the
// caller lends itself at most p.Workers()-1 helpers through TryGo, which
// never waits for a slot: every free slot the call can use at once, and
// before each index it claims, any slot freed since while unclaimed
// indices remain. So fan-out nested to any depth on one pool cannot
// deadlock, and a level whose slots are all taken runs inline. Either way a caller
// folding the returned slice in order sees exactly what a sequential loop
// that stops at its first error would have seen — the fold is written once
// and is byte-identical at any pool width.
func Ordered[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	n = max(n, 0)
	out := make([]T, n)
	errs := make([]error, n)
	if p == nil {
		for i := range out {
			if out[i], errs[i] = fn(i); errs[i] != nil {
				break
			}
		}
	} else {
		var next atomic.Int64
		claim := func() int { return int(next.Add(1) - 1) }
		help := func() {
			for i := claim(); i < n; i = claim() {
				out[i], errs[i] = fn(i)
			}
		}
		b := p.Batch()
		helpers := 0
		for helpers < min(p.Workers(), n)-1 && b.TryGo(help) {
			helpers++
		}
		for i := claim(); i < n; i = claim() {
			if helpers < p.Workers()-1 && int(next.Load()) < n && b.TryGo(help) {
				helpers++
			}
			out[i], errs[i] = fn(i)
		}
		b.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return out[:i+1], err
		}
	}
	return out, nil
}
