package codec

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Helpers lends an encode idle workers: TryGo starts fn on a free worker
// and reports whether it did, never waiting for one, and Wait returns once
// every fn it started has returned. *sched.Batch satisfies it.
type Helpers interface {
	TryGo(fn func()) bool
	Wait()
}

// splitChunk is the fixed chunk size at which a lazy parse (levels 5, 7
// and 9) cuts an input of at least two chunks. A chunk costs the windowSize
// positions a helper hashes before it, an eighth of one this size, and the
// matches that would have crossed its start.
const splitChunk = 1 << 18

// A split parse cuts its input at fixed boundaries, as pigz does. Each
// chunk is parsed from a fresh lazy state over the input cut at the chunk's
// end, so its last match ends inside it, with the hash chains and runs of
// the windowSize bytes before it. The chunks' tokens go through the one
// block writer in chunk order, so the bytes depend on the input and the
// level alone, not on who parsed which chunk.
//
// The owner parses chunks from the front and keeps its hash chains from one
// to the next: a chain walk reaches no further back than windowSize, so
// they give every walk what chains primed afresh give. A helper claims the
// last unclaimed chunk and primes a compressor of its own for it. The owner
// writes the tokens of any chunk a helper claimed once it is parsed.

// splitJob is the split parse of one input.
type splitJob struct {
	src   []byte
	level int
	size  int // the chunk size

	mu          sync.Mutex
	front, back int // the owner has claimed chunks [0, front), helpers [back, len(runs))
	helpers     int // helpers started and not yet out of chunks

	runs []splitRun // by chunk; a helper's chunk only

	// Input positions parsed and hashed only to prime a chain, summed over
	// the owner and every helper.
	parsed, primed atomic.Int64
}

// splitRun is a helper's parse of one chunk.
type splitRun struct {
	tokens []token
	done   chan struct{} // closed once tokens are final
}

// parseSplit parses d.src in chunks of size bytes, of which helpers started
// through h, if any, parse some from the back. It returns once every
// helper has.
func (d *compressor) parseSplit(h Helpers, size int) {
	if d.split == nil {
		d.split = new(splitJob)
	}
	j, src, n := d.split, d.src, (len(d.src)+size-1)/size
	*j = splitJob{src: src, level: d.level, size: size, back: n, runs: slices.Grow(j.runs[:0], n)[:n]}
	for c := range j.runs {
		j.runs[c].done = make(chan struct{})
	}
	for c := range n {
		j.mu.Lock() // the owner claims chunk c unless a helper has it
		mine := c < j.back
		if mine {
			j.front = c + 1
		}
		j.mu.Unlock()
		if !mine {
			// Chunks c on are the helpers'.
			d.src = src
			for ; c < n; c++ {
				<-j.runs[c].done
				d.feed(j.runs[c].tokens)
			}
			break
		}
		if h != nil {
			j.spawn(h)
		}
		// Chunk c, from the chains of every chunk before it: only the
		// positions the last cut left unhashed are still to hash.
		start := c * size
		d.src = src[:min(start+size, len(src))]
		j.primed.Add(int64(d.prime(max(start-(minMatchLength-1), 0), start)))
		d.byteAvailable, d.length, d.offset = false, minMatchLength-1, 0
		if d.runs {
			d.runNext = 0
		}
		d.parse()
		j.parsed.Add(int64(d.index - start))
	}
	if h != nil {
		h.Wait()
	}
	j.src = nil
}

// claimBack gives a helper the last unclaimed chunk. A helper that finds
// none is done.
func (j *splitJob) claimBack() (int, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.back > j.front {
		j.back--
		return j.back, true
	}
	j.helpers--
	return 0, false
}

// spawn starts helpers through h while unclaimed chunks outnumber them.
func (j *splitJob) spawn(h Helpers) {
	for {
		j.mu.Lock()
		want := j.helpers < j.back-j.front
		if want {
			j.helpers++
		}
		j.mu.Unlock()
		if !want {
			return
		}
		if !h.TryGo(j.help) {
			j.mu.Lock()
			j.helpers--
			j.mu.Unlock()
			return
		}
	}
}

// help parses chunks from the back until none is left unclaimed, each from
// a fresh state, its chains and runs primed with the windowSize positions
// before it, and publishes each chunk's tokens as its run.
func (j *splitJob) help() {
	d := getCompressor()
	defer putCompressor(d)
	for c, ok := j.claimBack(); ok; c, ok = j.claimBack() {
		r, start := &j.runs[c], c*j.size
		d.reset(j.src[:min(start+j.size, len(j.src))], j.level)
		from := max(start-windowSize, 0)
		j.primed.Add(int64(d.prime(from, start)))
		d.index, d.runFrom, d.runEnd = start, from, from
		d.tokens, r.tokens, d.cut = r.tokens[:0], d.tokens, -1
		d.parse()
		j.parsed.Add(int64(d.index - start))
		d.tokens, r.tokens, d.src = r.tokens, d.tokens, nil
		close(r.done)
	}
}
