package codec

import (
	"math"
	"slices"
	"sync"
)

// Helpers lends an encode idle workers: TryGo starts fn on a free worker
// and reports whether it did, never waiting for one, and Wait returns once
// every fn it started has returned. *sched.Batch satisfies it.
type Helpers interface {
	TryGo(fn func()) bool
	Wait()
}

// splitChunk is the chunk size by which EncodeWith splits the parse of a
// GOP. Each chunk costs the windowSize positions hashed before it and what
// the parse before it runs on past its end until they meet: on the golden
// GOP from 23 bytes to 36 KB, 8 KB on average, 3 % of a chunk this size. A
// parse that reaches a chunk still being parsed waits for it.
const splitChunk = 1 << 18

// A split parse gives the tokens of one parse, from chunks parsed in
// parallel. Above level 2 every position is hashed, findMatch is always
// asked for a match longer than minMatchLength-1, and lookahead runs short
// only at the input's end, so the chain walk at a position depends on the
// input and the position alone. The rest of a lazy parse's state is
// whether a byte is pending and the match found at the position before, so
// two parses that visit one position in one state go on alike. Each parse
// records its state at its sync points: where it stands fresh (just after
// a match, nothing pending) and every syncEvery-th position it visits.
//
// The owner parses chunks from the front, in one continuous parse. A
// helper claims the last unclaimed chunk, hashes the windowSize positions
// before it (and finds their runs) without emitting a token, and parses it
// from a fresh state. Whoever parsed the chunk before a helper's keeps
// parsing past its end until it meets the parse from that chunk, at a sync
// point both share, and takes that parse's tokens from there on. A helper
// that runs a whole chunk past its own end without meeting the next parse
// gives up its tokens, and the parse before it parses on through its
// chunk; the owner never gives up, so the tokens are exact whether parses
// meet or not, and no chunk is parsed more than three times.

// syncEvery spaces the sync points of a parse that emits no match, such as
// one of noise.
const syncEvery = 64

// splitJob is the split parse of one input.
type splitJob struct {
	src   []byte
	level int
	size  int // the chunk size

	mu          sync.Mutex
	front, back int // the owner has claimed chunks [0, front), helpers [back, len(runs))
	helpers     int // helpers started and not yet out of chunks

	runs []splitRun // by chunk; a helper's chunk only
}

// splitRun is a helper's parse of one chunk: its tokens from the chunk's
// start and its sync points, and then either the run and token its tokens
// go on from, where it met the parse after it, or next -1 if it parsed to
// the end, or failed if it gave up.
type splitRun struct {
	tokens        []token
	syncs         []syncPoint
	next, nextTok int
	failed        bool
	done          chan struct{} // closed once the run is final
}

// syncPoint is a position a parse visited, how many tokens it had emitted
// by then, and its state there (compressor.syncPoint).
type syncPoint struct{ pos, tok, state int }

// syncPoint returns the parse's sync point at d.index.
func (d *compressor) syncPoint() syncPoint {
	state := d.length<<16 | d.offset
	if d.byteAvailable {
		state |= 1 << 30
	}
	return syncPoint{d.index, len(d.tokens), state}
}

// parseSplit is parse(len(d.src), nil), from chunks of size bytes that
// helpers started through h parse from the back. It returns once every
// helper has.
func (d *compressor) parseSplit(h Helpers, size int) {
	if d.split == nil {
		d.split = new(splitJob)
	}
	j := d.split
	j.src, j.level, j.size = d.src, d.level, size
	n := (len(d.src) + size - 1) / size
	j.front, j.back, j.helpers = 0, n, 0
	j.runs = slices.Grow(j.runs[:0], n)[:n]
	for c := range j.runs {
		j.runs[c].done = make(chan struct{})
	}
	for c := range j.runs {
		if !j.claimFront(c) {
			// Chunks c on are the helpers': meet their parse.
			<-j.runs[c].done
			m := meeter{runs: j.runs, t: c}
			if d.parse(len(d.src), &m) {
				for t, k := m.t, m.tok; t >= 0; t, k = j.runs[t].next, j.runs[t].nextTok {
					d.feed(j.runs[t].tokens[k:])
				}
			}
			break
		}
		j.spawn(h)
		d.parse(min((c+1)*size, len(d.src)), nil)
	}
	h.Wait()
	j.src = nil
}

// claimFront gives the owner chunk c unless a helper has it.
func (j *splitJob) claimFront(c int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if c < j.back {
		j.front = c + 1
		return true
	}
	return false
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

// help parses chunks from the back until none is left unclaimed.
func (j *splitJob) help() {
	d := getCompressor()
	defer putCompressor(d)
	for c, ok := j.claimBack(); ok; c, ok = j.claimBack() {
		d.parseRun(j, c)
	}
}

// parseRun parses chunk c from a fresh state, primed with the windowSize
// positions before it, then on past its end, for at most a chunk, until it
// meets the parse of the chunks after it, and publishes the result as run
// c.
func (d *compressor) parseRun(j *splitJob, c int) {
	r := &j.runs[c]
	start, end := c*j.size, min((c+1)*j.size, len(j.src))
	d.reset(j.src, j.level)
	from := max(start-windowSize, 0)
	for p := from; p < min(start, len(j.src)-(minMatchLength-1)); p++ {
		d.insert(p)
	}
	d.index, d.runFrom, d.runEnd = start, from, from
	own := d.tokens
	d.tokens, d.syncs = r.tokens[:0], r.syncs[:0]
	d.record, d.cut = true, math.MaxInt
	d.parse(end, nil)
	r.next, r.failed = -1, false
	if end < len(j.src) {
		<-j.runs[c+1].done
		m := meeter{runs: j.runs, t: c + 1}
		if d.parse(min(end+j.size, len(j.src)), &m) {
			r.next, r.nextTok = m.t, m.tok
		} else {
			r.failed = d.index < len(j.src)
		}
	}
	r.tokens, r.syncs = d.tokens, d.syncs
	d.tokens, d.syncs, d.record, d.src = own, nil, false, nil
	close(r.done)
}

// meeter finds where a parse meets the parse from run t's chunk: at one of
// run t's sync points, and past its last one, those of the run it went on
// in. A run that gave up is passed over for the next.
type meeter struct {
	runs []splitRun
	t, k int // the run, and its first sync point not below the last asked
	tok  int // where a meeting is, in run t's tokens
}

// meet reports whether the parse from run t's chunk visited s.pos in the
// state s holds; s.pos never falls from one call to the next.
func (m *meeter) meet(s syncPoint) bool {
	for m.t >= 0 {
		r := &m.runs[m.t]
		if r.failed {
			m.t, m.k = m.t+1, 0
			continue
		}
		for m.k < len(r.syncs) && r.syncs[m.k].pos < s.pos {
			m.k++
		}
		if m.k < len(r.syncs) {
			m.tok = r.syncs[m.k].tok
			return r.syncs[m.k].pos == s.pos && r.syncs[m.k].state == s.state
		}
		m.t, m.k = r.next, 0
	}
	return false
}
