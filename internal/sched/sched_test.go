package sched

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderedFoldIsWorkerIndependent pins Ordered's contract: results come
// back in index order and are cut after the first failing index with its
// error, so a fold over them is the same at any worker count; only how many
// later indices ran differs (none inline, all on a pool).
func TestOrderedFoldIsWorkerIndependent(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 8, 0} {
		var p *Pool // one worker: inline
		if workers != 1 {
			p = NewPool(workers)
		}
		for _, failAt := range []int{-1, 0, 3, 9} {
			var ran atomic.Int64
			got, err := Ordered(p, 10, func(i int) (int, error) {
				ran.Add(1)
				if i == failAt || i == 7 && failAt >= 0 {
					return -i, boom
				}
				return i * i, nil
			})
			name := fmt.Sprintf("workers=%d failAt=%d", workers, failAt)
			want := 10
			if failAt >= 0 {
				want = min(failAt, 7) + 1
			}
			if (err != nil) != (failAt >= 0) || len(got) != want {
				t.Fatalf("%s: %d results, err %v; want %d", name, len(got), err, want)
			}
			for i, v := range got {
				if i < want-1 || failAt < 0 {
					if v != i*i {
						t.Fatalf("%s: slot %d holds %d", name, i, v)
					}
				} else if v != -i {
					t.Fatalf("%s: failing slot %d holds %d, want what fn returned with its error", name, i, v)
				}
			}
			if workers == 1 && int(ran.Load()) != want {
				t.Fatalf("%s: inline ran %d indices, want to stop after %d", name, ran.Load(), want)
			}
			if workers != 1 && ran.Load() != 10 {
				t.Fatalf("%s: pooled ran %d indices, want all 10", name, ran.Load())
			}
		}
	}
	if got, err := Ordered(NewPool(4), -3, func(int) (int, error) { return 0, boom }); len(got) != 0 || err != nil {
		t.Fatalf("negative n: %v, %v", got, err)
	}
	if got, _ := Ordered(NewPool(4), 1, func(i int) (int, error) { return 5, nil }); len(got) != 1 || got[0] != 5 {
		t.Fatalf("single index: %v", got)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	pool := NewPool(workers)
	if pool.Workers() != workers {
		t.Fatalf("Workers() = %d", pool.Workers())
	}
	var running, peak, total int32
	var mu sync.Mutex
	b := pool.Batch()
	for i := 0; i < 20; i++ {
		b.Go(func() {
			n := atomic.AddInt32(&running, 1)
			mu.Lock()
			if n > peak {
				peak = n
			}
			mu.Unlock()
			atomic.AddInt32(&total, 1)
			atomic.AddInt32(&running, -1)
		})
	}
	b.Wait()
	if total != 20 {
		t.Fatalf("ran %d tasks, want 20", total)
	}
	if peak > workers {
		t.Fatalf("peak concurrency %d exceeds pool width %d", peak, workers)
	}
}

func TestPoolDefaultsToGOMAXPROCS(t *testing.T) {
	if NewPool(0).Workers() <= 0 {
		t.Fatal("zero-worker pool")
	}
	if NewPool(-3).Workers() <= 0 {
		t.Fatal("negative-worker pool")
	}
}

// TestTryGoOnSaturatedPool: a task that asks its own full pool for a
// helper is refused at once, and no helper runs.
func TestTryGoOnSaturatedPool(t *testing.T) {
	pool := NewPool(1)
	got := make(chan bool)
	b := pool.Batch()
	b.Go(func() { got <- pool.Batch().TryGo(func() { t.Error("a helper ran on a saturated pool") }) })
	if <-got {
		t.Fatal("TryGo started a task on a saturated pool")
	}
	b.Wait()
}

// TestTryGoBoundsConcurrency: TryGo takes only free slots, so tasks and the
// helpers they start never run more than Workers() at once, and once a
// batch's Wait returns, every slot its tasks held is free again.
func TestTryGoBoundsConcurrency(t *testing.T) {
	const workers = 3
	pool := NewPool(workers)
	b := pool.Batch()
	hold := make(chan struct{})
	for i := range workers {
		if !b.TryGo(func() { <-hold }) {
			t.Fatalf("TryGo %d of %d on a free pool was refused", i+1, workers)
		}
	}
	if b.TryGo(func() {}) {
		t.Fatal("TryGo started a task past Workers()")
	}
	close(hold)
	b.Wait()
	hold = make(chan struct{})
	for i := range workers {
		if !b.TryGo(func() { <-hold }) {
			t.Fatalf("slot %d still held after Wait returned", i+1)
		}
	}
	close(hold)
	b.Wait()

	var running, peak atomic.Int32
	enter := func() {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
	}
	tasks := pool.Batch()
	for range 40 {
		tasks.Go(func() {
			enter()
			defer running.Add(-1)
			helpers := pool.Batch()
			for range workers {
				helpers.TryGo(func() {
					enter()
					running.Add(-1)
				})
			}
			helpers.Wait()
		})
	}
	tasks.Wait()
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds pool width %d", p, workers)
	}
}

// TestOrderedNestedOnOnePool nests Ordered three deep on one pool, as a
// query does (segments, GOPs, frame chunks): every index at every level
// runs exactly once with no deadlock, at most the pool's slots plus the
// caller run at once, and no goroutine outlives the call.
func TestOrderedNestedOnOnePool(t *testing.T) {
	const n0, n1, n2 = 4, 3, 5
	for _, workers := range []int{1, 2, 3} {
		name := fmt.Sprintf("workers=%d", workers)
		pool := NewPool(workers)
		baseline := runtime.NumGoroutine()
		var runs [n0][n1][n2]atomic.Int32
		var mids [n0][n1]atomic.Int32
		var tops [n0]atomic.Int32
		var running, peak atomic.Int32
		done := make(chan error, 1)
		go func() {
			_, err := Ordered(pool, n0, func(i int) (int, error) {
				tops[i].Add(1)
				_, err := Ordered(pool, n1, func(j int) (int, error) {
					mids[i][j].Add(1)
					_, err := Ordered(pool, n2, func(k int) (int, error) {
						runs[i][j][k].Add(1)
						n := running.Add(1)
						for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
						}
						time.Sleep(time.Millisecond)
						running.Add(-1)
						return k, nil
					})
					return j, err
				})
				return i, err
			})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%s: nested Ordered deadlocked", name)
		}
		for i := range runs {
			if got := tops[i].Load(); got != 1 {
				t.Fatalf("%s: index %d ran %d times", name, i, got)
			}
			for j := range runs[i] {
				if got := mids[i][j].Load(); got != 1 {
					t.Fatalf("%s: index %d/%d ran %d times", name, i, j, got)
				}
				for k := range runs[i][j] {
					if got := runs[i][j][k].Load(); got != 1 {
						t.Fatalf("%s: index %d/%d/%d ran %d times", name, i, j, k, got)
					}
				}
			}
		}
		if p := int(peak.Load()); p > pool.Workers()+1 {
			t.Fatalf("%s: %d fns ran at once, over the pool's %d slots plus the caller", name, p, pool.Workers())
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the call, %d before", name, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestOrderedTakesEveryFreeSlot: a fan-out of as many indices as the pool
// has slots runs them all at once — the caller starts a helper in every
// free slot it can use before it runs an index, rather than one helper per
// index it claims. Each fn waits until all of them have arrived.
func TestOrderedTakesEveryFreeSlot(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 8} {
		var arrived atomic.Int32
		all := make(chan struct{})
		_, err := Ordered(NewPool(workers), workers, func(i int) (int, error) {
			if int(arrived.Add(1)) == workers {
				close(all)
			}
			select {
			case <-all:
				return i, nil
			case <-time.After(10 * time.Second):
				return i, fmt.Errorf("fn %d waited 10s for all %d fns to run at once", i, workers)
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}
