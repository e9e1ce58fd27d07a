// Windowed and cumulative per-tenant statistics. The Window is a ring of
// per-second buckets summed over the trailing 60 seconds — what
// /v1/stats reports, so a dashboard sees current load, not the average
// since boot — beside one bucket that never resets: the totals, monotonic
// counters for /metrics, because Prometheus rates over cumulative
// counters itself.

package tenant

import (
	"math/bits"
	"sync"
	"time"
)

// WindowSeconds is the sliding window's span.
const WindowSeconds = 60

// WaitBucketBoundsMs is the admission-wait histogram's bucket upper
// bounds in milliseconds (powers of two from 1ms to ~33s); a final
// implicit overflow bucket catches everything beyond. Shared by the
// windowed p99 estimate and the Prometheus histogram exposition.
var WaitBucketBoundsMs = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}

const waitBuckets = 17 // len(WaitBucketBoundsMs) + overflow

// waitBucket maps an admission wait to its histogram bucket.
func waitBucket(wait time.Duration) int {
	ms := wait.Milliseconds()
	if ms <= 1 {
		return 0
	}
	// Bucket i covers (2^(i-1), 2^i] ms; bits.Len(ms-1) is that i.
	i := bits.Len64(uint64(ms - 1))
	if i >= waitBuckets {
		return waitBuckets - 1
	}
	return i
}

// waitP99 estimates the 99th-percentile admission wait from a histogram:
// the upper bound of the bucket holding the 99th-percentile observation.
// The overflow bucket reports twice the last finite bound — "off the
// scale" must read as a large number, not saturate at the scale's edge.
func waitP99(hist []int64) float64 {
	var total int64
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := (total*99 + 99) / 100 // ceil(0.99 * total)
	var cum int64
	for i, c := range hist {
		cum += c
		if cum >= rank {
			if i < len(WaitBucketBoundsMs) {
				return WaitBucketBoundsMs[i]
			}
			return 2 * WaitBucketBoundsMs[len(WaitBucketBoundsMs)-1]
		}
	}
	return 2 * WaitBucketBoundsMs[len(WaitBucketBoundsMs)-1]
}

// WindowStats is one tenant's trailing-60s summary.
type WindowStats struct {
	Requests int64 `json:"requests"`
	OK       int64 `json:"ok"`
	Rejected int64 `json:"rejected"`      // 429s: queue overflow or quota
	Aborted  int64 `json:"client_aborts"` // vanished before admission
	Errors   int64 `json:"errors"`
	Bytes    int64 `json:"bytes"` // response + ingested traffic charged
	// AvgMs/MaxMs cover answered requests (OK and errors); rejections and
	// aborts never ran, so they are excluded.
	AvgMs float64 `json:"avg_ms"`
	MaxMs float64 `json:"max_ms"`
	// AvgWaitMs/P99WaitMs are the admission-gate wait of admitted
	// requests — the fairness signal: a starved tenant's p99 wait grows
	// without bound, a fairly served one's stays near the slot hold time.
	AvgWaitMs float64 `json:"avg_wait_ms"`
	P99WaitMs float64 `json:"p99_wait_ms"`
}

// winBucket is one second's counters, or, as Window.total, all of them.
type winBucket struct {
	sec      int64 // unix second this bucket currently holds
	requests int64
	ok       int64
	rejected int64
	aborted  int64
	errors   int64
	bytes    int64
	latNs    int64
	maxLatNs int64
	waits    int64
	waitNs   int64
	waitHist [waitBuckets]int64
}

func (b *winBucket) observe(o Outcome, latency, wait time.Duration, bytes int64) {
	b.requests++
	b.bytes += bytes
	switch o {
	case OutcomeRejected:
		b.rejected++
		return
	case OutcomeAborted:
		b.aborted++
		return
	case OutcomeError:
		b.errors++
	default:
		b.ok++
	}
	// Admitted (answered) requests carry latency and admission wait.
	ns := latency.Nanoseconds()
	b.latNs += ns
	if ns > b.maxLatNs {
		b.maxLatNs = ns
	}
	b.waits++
	b.waitNs += wait.Nanoseconds()
	b.waitHist[waitBucket(wait)]++
}

// Window is a ring of per-second buckets plus the cumulative total;
// Observe writes the current second's bucket (lazily recycling stale
// ones) and the total, Snapshot sums the trailing 60, Totals and WaitHist
// read the total. One mutex serves them all: contention is per-tenant and
// the critical sections are a handful of adds.
type Window struct {
	mu      sync.Mutex
	buckets [WindowSeconds + 4]winBucket // slack so a bucket ages out before reuse
	total   winBucket
	now     func() time.Time
}

func newWindowClock(now func() time.Time) *Window { return &Window{now: now} }

func (w *Window) bucketLocked(sec int64) *winBucket {
	b := &w.buckets[sec%int64(len(w.buckets))]
	if b.sec != sec {
		*b = winBucket{sec: sec}
	}
	return b
}

// Observe records one finished request.
func (w *Window) Observe(o Outcome, latency, wait time.Duration, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.bucketLocked(w.now().Unix()).observe(o, latency, wait, bytes)
	w.total.observe(o, latency, wait, bytes)
}

// Snapshot sums the trailing WindowSeconds of buckets.
func (w *Window) Snapshot() WindowStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	nowSec := w.now().Unix()
	var (
		st       WindowStats
		latNs    int64
		maxLatNs int64
		waits    int64
		waitNs   int64
		hist     [waitBuckets]int64
	)
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.sec <= nowSec-WindowSeconds || b.sec > nowSec {
			continue
		}
		st.Requests += b.requests
		st.OK += b.ok
		st.Rejected += b.rejected
		st.Aborted += b.aborted
		st.Errors += b.errors
		st.Bytes += b.bytes
		latNs += b.latNs
		if b.maxLatNs > maxLatNs {
			maxLatNs = b.maxLatNs
		}
		waits += b.waits
		waitNs += b.waitNs
		for j, c := range b.waitHist {
			hist[j] += c
		}
	}
	if answered := st.OK + st.Errors; answered > 0 {
		st.AvgMs = float64(latNs) / float64(answered) / 1e6
	}
	st.MaxMs = float64(maxLatNs) / 1e6
	if waits > 0 {
		st.AvgWaitMs = float64(waitNs) / float64(waits) / 1e6
	}
	st.P99WaitMs = waitP99(hist[:])
	return st
}

// Totals is one tenant's cumulative counters — monotonic, for Prometheus.
type Totals struct {
	Requests  int64
	OK        int64
	Rejected  int64
	Aborted   int64
	Errors    int64
	Bytes     int64
	LatencyNs int64 // answered requests only
	WaitNs    int64 // admitted requests only
}

// Totals returns the cumulative counters.
func (w *Window) Totals() Totals {
	w.mu.Lock()
	defer w.mu.Unlock()
	t := &w.total
	return Totals{
		Requests:  t.requests,
		OK:        t.ok,
		Rejected:  t.rejected,
		Aborted:   t.aborted,
		Errors:    t.errors,
		Bytes:     t.bytes,
		LatencyNs: t.latNs,
		WaitNs:    t.waitNs,
	}
}

// WaitHist returns the cumulative admission-wait histogram.
func (w *Window) WaitHist() []int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]int64(nil), w.total.waitHist[:]...)
}
