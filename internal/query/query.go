// Package query executes video queries as operator cascades (§2.1, Figure
// 2): early, cheap operators scan the whole queried span and activate late,
// expensive operators on the fraction of video that passed. Each stage
// consumes its own consumption format, retrieved from the storage format its
// consumer subscribes to.
package query

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/ops"
	"repro/internal/profile"
	"repro/internal/results"
	"repro/internal/retrieve"
	"repro/internal/sched"
	"repro/internal/segment"
)

// Stage is one operator of a cascade.
type Stage struct {
	Op ops.Operator
}

// Cascade is an ordered operator pipeline.
type Cascade struct {
	Name   string
	Stages []Stage
}

// QueryA is the car-detection cascade of Figure 2(a): Diff filters similar
// frames, S-NN rapidly detects obvious cars, NN analyses the remainder.
func QueryA() Cascade {
	return Cascade{Name: "A (Diff+S-NN+NN)", Stages: []Stage{{ops.Diff{}}, {ops.SNN{}}, {ops.NN{}}}}
}

// QueryB is the license-plate recognition cascade of Figure 2(b): Motion
// filters still frames, License spots plate regions, OCR reads characters.
func QueryB() Cascade {
	return Cascade{Name: "B (Motion+License+OCR)", Stages: []Stage{{ops.Motion{}}, {ops.License{}}, {ops.OCR{}}}}
}

// DefaultAccuracy is the target operator accuracy a request that names
// none runs at.
const DefaultAccuracy = 0.9

// ByName resolves the named standard cascade and its operator names — the
// shared lookup behind the CLI's and the HTTP API's -query/"query" knob.
// The empty name selects Query A.
func ByName(name string) (Cascade, []string, error) {
	switch name {
	case "", "A", "a":
		return QueryA(), []string{"Diff", "S-NN", "NN"}, nil
	case "B", "b":
		return QueryB(), []string{"Motion", "License", "OCR"}, nil
	}
	return Cascade{}, nil, fmt.Errorf("query: unknown cascade %q (want A or B)", name)
}

// StageBinding tells a stage which consumption format to consume and which
// storage format to retrieve it from. Bindings are produced from a derived
// configuration, or from the 1→1 / 1→N baselines of §6.2.
type StageBinding struct {
	CF format.ConsumptionFormat
	SF format.StorageFormat
}

// Binding is the per-stage format assignment of one query execution.
type Binding []StageBinding

// Result is the outcome of a query execution. Detections and FinalPTS may
// share storage with the results store (a range entry served as the final
// stage): they are read-only, though appending to them is safe.
type Result struct {
	Detections   []ops.Detection // final-stage detections
	FinalPTS     []int           // frames the final stage consumed
	VideoSeconds float64
	// VirtualSeconds is the pipelined execution time on the virtual clock:
	// per stage, retrieval and consumption overlap.
	VirtualSeconds float64
	WallSeconds    float64
	StageStats     []StageStats
}

// StageStats reports one stage's work.
type StageStats struct {
	Op             string
	FramesConsumed int64
	RetrievalSec   float64
	ConsumptionSec float64
	ActivatedSpans int
}

// Speed returns the query speed as a multiple of video realtime on the
// virtual clock.
func (r Result) Speed() float64 {
	if r.VirtualSeconds <= 0 {
		return 0
	}
	return r.VideoSeconds / r.VirtualSeconds
}

// Engine runs cascades against a segment store — a bare *segment.Store,
// or a segment.View pinning a server snapshot so a live query observes one
// immutable segment set for its whole run.
type Engine struct {
	Store retrieve.SegmentReader
	// Cache, when non-nil, memoises full-segment retrievals (see
	// retrieve.Cache).
	Cache *retrieve.Cache
	// Results, when non-nil, materializes finalized per-segment stage
	// outputs (see the results package): eligible stages consult it before
	// computing and write behind after, so a repeated query serves stored
	// detections from memory instead of re-decoding and re-running
	// operators. A stage is eligible when its operator is frame-independent
	// (per-segment outputs concatenate into exactly the whole-range output)
	// or the range is a single segment (a stateful operator's output over
	// one segment is self-contained); segment visibility gates every lookup
	// exactly as it gates the frame cache, and entries carry the exact
	// accounting of the computation they memoise — so results are
	// byte-identical to the recomputing path at any worker count.
	Results *results.Store
	// Workers bounds the engine's worker pool. Each stage fans its segment
	// retrievals across the pool and merges frames in segment order, and
	// operators declaring per-frame independence (ops.FrameIndependent)
	// additionally fan consumption across frame chunks reassembled in
	// order — so the cascade's output is identical to the sequential path
	// in both cases. Stateful operators (frame differencing, background
	// models) consume sequentially, since splitting their input would
	// change detections. Zero selects runtime.GOMAXPROCS; one forces fully
	// sequential execution.
	Workers int
	// Rebuild, when non-nil, reconstructs a damaged or lost replica from
	// a richer surviving ancestor so the query answers degraded instead
	// of failing (see retrieve.Retriever.Rebuild). Degraded serves skip
	// the frame cache and the results store.
	Rebuild retrieve.RebuildFunc
	// OnDegraded, when non-nil, observes every degraded serve — the
	// server's hook for counting and enqueueing background repair.
	OnDegraded func(stream string, seg int, sf format.StorageFormat)
}

// Run executes the cascade over segments [seg0, seg1) of the stream using
// the given binding (one entry per stage). ctx cancels the run between
// per-segment retrieval batches: a canceled query stops scheduling decode
// work promptly — segments already decoding finish, nothing further
// starts — and Run returns ctx.Err(). Pass context.Background() for an
// uncancellable run; nil is treated the same.
func (e *Engine) Run(ctx context.Context, stream string, c Cascade, b Binding, seg0, seg1 int) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(b) != len(c.Stages) {
		return Result{}, fmt.Errorf("query: binding has %d stages, cascade %d", len(b), len(c.Stages))
	}
	r := retrieve.Retriever{Store: e.Store, Cache: e.Cache, Rebuild: e.Rebuild, OnDegraded: e.OnDegraded}
	if e.Workers != 1 {
		// Intra-segment decode parallelism: each retrieval fans its
		// segment's independent GOPs across this pool (merged in position
		// order, so output is byte-identical to sequential). The pool is
		// distinct from the per-range segment fan-out pools — a segment
		// task blocking on a decode slot can never deadlock against its
		// own pool.
		r.DecodePool = sched.NewPool(e.Workers)
	}
	res := Result{VideoSeconds: float64(seg1-seg0) * segment.Seconds}
	t0 := time.Now()

	// Activation filter: nil for the first stage (scan everything); later
	// stages consume only spans around the previous stage's detections. The
	// tag digests the activation spans so filtered retrievals stay
	// cacheable (spans are a deterministic function of the earlier stages'
	// output, so equal tags imply equal delivered frame sets).
	var within func(pts int) bool
	var tag string
	for si, stage := range c.Stages {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		// A stage routes through the results store per segment when its
		// per-segment outputs provably compose into the whole-range output:
		// frame-independent operators by contract, and any operator over a
		// single segment (its output there is self-contained). Stateful
		// operators over multi-segment ranges — splitting their input per
		// segment would change detections — materialize the whole range as
		// one unit instead, validated against the exact segment set the
		// caller's snapshot would retrieve.
		var out ops.Output
		var rst retrieve.Stats
		var ost ops.Stats
		var err error
		switch {
		case e.Results == nil || (within != nil && tag == ""):
			var frames []*frame.Frame
			frames, rst, err = e.retrieveRange(ctx, &r, stream, b[si].SF, b[si].CF, seg0, seg1, within, tag)
			if err == nil {
				out, ost = runStage(stage.Op, frames, b[si].CF.Fidelity, e.Workers)
			}
		case ops.IsFrameIndependent(stage.Op) || seg1-seg0 <= 1:
			out, rst, ost, err = e.runStageMaterialized(ctx, &r, stream, stage.Op, b[si], seg0, seg1, within, tag)
		default:
			out, rst, ost, err = e.runStageRangeMaterialized(ctx, &r, stream, stage.Op, b[si], seg0, seg1, within, tag)
		}
		if err != nil {
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
			return res, fmt.Errorf("query: stage %s: %w", stage.Op.Name(), err)
		}
		stageStat := StageStats{
			Op: stage.Op.Name(),
			// Delivered == consumed: every frame a retrieval delivers, the
			// stage consumes. The delivered count is part of the retrieval
			// stats, so hit and recompute paths report it identically.
			FramesConsumed: rst.FramesDelivered,
			RetrievalSec:   rst.VirtualSeconds,
			ConsumptionSec: profile.OpSeconds(ost),
		}
		// Pipelined stage time: decoder and operator overlap, so the stage
		// runs at the slower of the two (§2.2: "the operator runs at the
		// speed of retrieval or consumption, whichever is lower").
		res.VirtualSeconds += maxf(rst.VirtualSeconds, stageStat.ConsumptionSec)
		if si == len(c.Stages)-1 {
			res.Detections = out.Detections
			res.FinalPTS = out.PTS
			res.StageStats = append(res.StageStats, stageStat)
			break
		}
		// Build the next stage's activation window set.
		spans := activationSpans(out, b[si].CF.Fidelity.Sampling)
		stageStat.ActivatedSpans = len(spans)
		res.StageStats = append(res.StageStats, stageStat)
		if len(spans) == 0 {
			// Nothing passed the filter: the cascade short-circuits.
			for _, later := range c.Stages[si+1:] {
				res.StageStats = append(res.StageStats, StageStats{Op: later.Op.Name()})
			}
			break
		}
		within = spanPredicate(spans)
		tag = spanTag(spans)
	}
	res.WallSeconds = time.Since(t0).Seconds()
	return res, nil
}

// retrieveRange fetches segments [seg0, seg1), fanning them across the
// engine's worker pool and merging frames and stats in segment order — the
// same fold the sequential retrieve.Range performs, so results (including
// the order-sensitive float accumulation of virtual seconds) are identical.
// Missing (eroded) segments are skipped exactly as in the sequential path.
// ctx is checked between per-segment batches (before each sequential
// retrieval, and before each pooled segment task starts): cancellation
// stops further decode work promptly and surfaces as ctx.Err().
func (e *Engine) retrieveRange(ctx context.Context, r *retrieve.Retriever, stream string, sf format.StorageFormat, cf format.ConsumptionFormat, seg0, seg1 int, within func(pts int) bool, tag string) ([]*frame.Frame, retrieve.Stats, error) {
	type segResult struct {
		frames []*frame.Frame
		st     retrieve.Stats
	}
	slots, err := sched.Ordered(seg1-seg0, e.Workers, func(i int) (segResult, error) {
		// A canceled query abandons queued segment tasks before their
		// decode starts; in-flight decodes run to completion.
		if err := ctx.Err(); err != nil {
			return segResult{}, err
		}
		frames, st, err := r.SegmentTagged(stream, sf, cf, seg0+i, within, tag)
		if errors.Is(err, segment.ErrNotFound) {
			return segResult{st: st}, nil // eroded segment: caller handles fallback
		}
		return segResult{frames, st}, err
	})
	if cerr := ctx.Err(); cerr != nil {
		return nil, retrieve.Stats{}, cerr
	}
	var all []*frame.Frame
	var total retrieve.Stats
	for _, s := range slots {
		total.Add(s.st)
		all = append(all, s.frames...)
	}
	if err != nil {
		return nil, total, err
	}
	return all, total, nil
}

// runStageMaterialized executes one eligible stage per segment through the
// results store: each segment is answered from a stored entry when one
// exists (visibility-gated, exactly like the frame cache) and
// computed-then-stored otherwise. Outputs and stats merge in segment order —
// the same fold retrieveRange performs, including its order-sensitive
// virtual-seconds accumulation and its skip of eroded segments — so the
// stage result is byte-identical to the recomputing path at any worker
// count and under any hit/miss mix.
func (e *Engine) runStageMaterialized(ctx context.Context, r *retrieve.Retriever, stream string, op ops.Operator, sb StageBinding, seg0, seg1 int, within func(pts int) bool, tag string) (ops.Output, retrieve.Stats, ops.Stats, error) {
	type segResult struct {
		out ops.Output
		rst retrieve.Stats
		ost ops.Stats
	}
	// Segments fanned across the pool consume sequentially; a lone segment
	// gets the whole worker budget for its consumption instead.
	inner := 1
	if seg1-seg0 <= 1 {
		inner = e.Workers
	}
	slots, err := sched.Ordered(seg1-seg0, e.Workers, func(i int) (segResult, error) {
		// A canceled query abandons queued segment tasks before they touch
		// the store; a task that has started always balances its own Get
		// miss (Put or Abandon) before finishing.
		if err := ctx.Err(); err != nil {
			return segResult{}, err
		}
		out, rst, ost, err := e.materializedSegment(r, stream, op, sb, seg0+i, within, tag, inner)
		if errors.Is(err, segment.ErrNotFound) {
			return segResult{rst: rst}, nil // eroded segment: same skip as the retrieval fold
		}
		return segResult{out, rst, ost}, err
	})
	if cerr := ctx.Err(); cerr != nil {
		return ops.Output{}, retrieve.Stats{}, ops.Stats{}, cerr
	}
	var out ops.Output
	var rst retrieve.Stats
	var ost ops.Stats
	for _, s := range slots {
		rst.Add(s.rst)
		out.PTS = append(out.PTS, s.out.PTS...)
		out.Detections = append(out.Detections, s.out.Detections...)
		ost.Add(s.ost)
	}
	if err != nil {
		return ops.Output{}, rst, ost, err
	}
	return out, rst, ost, nil
}

// stageFunc computes one stage's output over some segments, with the
// retrieval and consumption accounting of doing so.
type stageFunc func() (ops.Output, retrieve.Stats, ops.Stats, error)

// retrieveThenRun is the stageFunc both materialized paths memoise: retrieve
// the frames, then run the operator over them.
func retrieveThenRun(op ops.Operator, fid format.Fidelity, workers int, retrieveFrames func() ([]*frame.Frame, retrieve.Stats, error)) stageFunc {
	return func() (ops.Output, retrieve.Stats, ops.Stats, error) {
		frames, rst, err := retrieveFrames()
		if err != nil {
			return ops.Output{}, rst, ops.Stats{}, err
		}
		out, ost := runStage(op, frames, fid, workers)
		return out, rst, ost, nil
	}
}

// memoised is the results store's fill protocol, written once: a hit serves
// the stored output (the store's read-only slices) and its exact
// accounting; a miss computes and writes behind, Put copying the output.
// The miss is balanced on every path — Put when the output may be stored,
// Abandon when retrieval failed or was degraded (frames from a
// fallback reconstruction are possibly best-effort: the query is answered,
// but post-repair queries must recompute from the restored replica) — so the
// stream's generation state never leaks, and the token carried from the miss
// to Put drops fills that raced an invalidation. want is the covered-segment
// set of a range entry (see results.Store.GetRange), nil for one segment.
func (e *Engine) memoised(k results.Key, want []int, compute stageFunc) (ops.Output, retrieve.Stats, ops.Stats, error) {
	ent, tok, ok := e.Results.GetRange(k, want)
	if ok {
		return ops.Output{PTS: ent.PTS, Detections: ent.Detections}, ent.Retrieval, ent.Consumption, nil
	}
	out, rst, ost, err := compute()
	if err != nil || rst.Degraded > 0 {
		e.Results.Abandon(k.Stream)
	} else {
		e.Results.Put(k, results.Entry{Segs: want, PTS: out.PTS, Detections: out.Detections, Retrieval: rst, Consumption: ost}, tok)
	}
	return out, rst, ost, err
}

// materializedSegment answers one segment of an eligible stage: visibility
// check first (an eroded segment must miss even while its entry is still
// resident), then the store, then compute and write behind on a miss.
func (e *Engine) materializedSegment(r *retrieve.Retriever, stream string, op ops.Operator, sb StageBinding, idx int, within func(pts int) bool, tag string, workers int) (ops.Output, retrieve.Stats, ops.Stats, error) {
	if !e.Store.Visible(stream, sb.SF, idx) {
		return ops.Output{}, retrieve.Stats{}, ops.Stats{}, segment.ErrNotFound
	}
	k := results.Key{Stream: stream, Seg: idx, Op: op.Name(), SF: sb.SF.Key(), CF: sb.CF.Fidelity.Key(), Span: tag}
	return e.memoised(k, nil, retrieveThenRun(op, sb.CF.Fidelity, workers, func() ([]*frame.Frame, retrieve.Stats, error) {
		return r.SegmentTagged(stream, sb.SF, sb.CF, idx, within, tag)
	}))
}

// runStageRangeMaterialized executes a stateful stage over a multi-segment
// range through the results store as one unit: the whole sequential
// computation — retrieval fold, operator run, exact accounting — is
// memoised under a range key and served back only to callers whose
// snapshot would retrieve exactly the same segments. That coverage check,
// plus the per-stream generation token, keeps the invariant the
// per-segment path gets from its visibility gate: an eroded segment can
// never contribute stale frames to a served result. A stored range entry
// memoises the sequential path verbatim (outputs and folded stats as one
// blob), so hits are byte-identical to recomputation at any worker count.
func (e *Engine) runStageRangeMaterialized(ctx context.Context, r *retrieve.Retriever, stream string, op ops.Operator, sb StageBinding, seg0, seg1 int, within func(pts int) bool, tag string) (ops.Output, retrieve.Stats, ops.Stats, error) {
	visible := make([]int, 0, seg1-seg0)
	for idx := seg0; idx < seg1; idx++ {
		if e.Store.Visible(stream, sb.SF, idx) {
			visible = append(visible, idx)
		}
	}
	recompute := retrieveThenRun(op, sb.CF.Fidelity, e.Workers, func() ([]*frame.Frame, retrieve.Stats, error) {
		return e.retrieveRange(ctx, r, stream, sb.SF, sb.CF, seg0, seg1, within, tag)
	})
	if len(visible) == 0 {
		// Nothing this snapshot can retrieve: run the (empty) fold without
		// storing an uninvalidatable entry.
		return recompute()
	}
	k := results.Key{Stream: stream, Seg: seg0, End: seg1, Op: op.Name(), SF: sb.SF.Key(), CF: sb.CF.Fidelity.Key(), Span: tag}
	return e.memoised(k, visible, recompute)
}

// spanTag digests activation spans into a cache tag: equal span sets — and
// only equal span sets, short of a SHA-256 collision — produce equal tags.
func spanTag(spans []span) string {
	h := sha256.New()
	var buf [16]byte
	for _, s := range spans {
		binary.BigEndian.PutUint64(buf[:8], uint64(int64(s.lo)))
		binary.BigEndian.PutUint64(buf[8:], uint64(int64(s.hi)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// minChunkFrames keeps consumption fan-out worthwhile: chunks smaller than
// this run sequentially, as goroutine overhead would swamp the work.
const minChunkFrames = 4

// runStage executes one cascade stage's consumption. Operators declaring
// per-frame independence (ops.FrameIndependent) run on contiguous frame
// chunks fanned across a worker pool, with outputs concatenated in chunk
// order and stats summed — which the contract guarantees is identical to a
// single sequential call. Stateful operators (frame differencing,
// background models) always run sequentially.
func runStage(op ops.Operator, frames []*frame.Frame, fid format.Fidelity, workers int) (ops.Output, ops.Stats) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunks := workers
	if max := len(frames) / minChunkFrames; chunks > max {
		chunks = max
	}
	if workers == 1 || chunks < 2 || !ops.IsFrameIndependent(op) {
		return ops.RunAtFidelity(op, frames, fid)
	}
	type chunkResult struct {
		out ops.Output
		st  ops.Stats
	}
	results, _ := sched.Ordered(chunks, workers, func(i int) (chunkResult, error) {
		lo := len(frames) * i / chunks
		hi := len(frames) * (i + 1) / chunks
		out, st := ops.RunAtFidelity(op, frames[lo:hi], fid)
		return chunkResult{out, st}, nil
	})
	var out ops.Output
	var st ops.Stats
	for _, c := range results {
		out.PTS = append(out.PTS, c.out.PTS...)
		out.Detections = append(out.Detections, c.out.Detections...)
		st.Add(c.st)
	}
	return out, st
}

type span struct{ lo, hi int }

// activationSpans converts a stage's detections into original-timeline
// windows: each detection covers its consumed frame's sampling interval.
func activationSpans(out ops.Output, s format.Sampling) []span {
	interval := int(s.Interval())
	if interval < 1 {
		interval = 1
	}
	var spans []span
	for _, d := range out.Detections {
		lo := d.PTS - interval/2
		hi := d.PTS + interval + interval/2
		if n := len(spans); n > 0 && lo <= spans[n-1].hi {
			if hi > spans[n-1].hi {
				spans[n-1].hi = hi
			}
			continue
		}
		spans = append(spans, span{lo, hi})
	}
	return spans
}

func spanPredicate(spans []span) func(int) bool {
	return func(pts int) bool {
		// Binary search over sorted spans.
		lo, hi := 0, len(spans)-1
		for lo <= hi {
			mid := (lo + hi) / 2
			switch {
			case pts < spans[mid].lo:
				hi = mid - 1
			case pts > spans[mid].hi:
				lo = mid + 1
			default:
				return true
			}
		}
		return false
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
