package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestOrderedFoldIsWorkerIndependent pins Ordered's contract: results come
// back in index order and are cut after the first failing index with its
// error, so a fold over them is the same at any worker count; only how many
// later indices ran differs (none inline, all on a pool).
func TestOrderedFoldIsWorkerIndependent(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 8, 0} {
		for _, failAt := range []int{-1, 0, 3, 9} {
			var ran atomic.Int64
			got, err := Ordered(10, workers, func(i int) (int, error) {
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
	if got, err := Ordered(-3, 4, func(int) (int, error) { return 0, boom }); len(got) != 0 || err != nil {
		t.Fatalf("negative n: %v, %v", got, err)
	}
	if got, _ := Ordered(1, 4, func(i int) (int, error) { return 5, nil }); len(got) != 1 || got[0] != 5 {
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
	for i := 0; i < 20; i++ {
		pool.Go(func() {
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
	pool.Wait()
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
