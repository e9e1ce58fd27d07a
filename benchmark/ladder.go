package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/ingest"
	"repro/internal/ops"
	"repro/internal/query"
	"repro/internal/results"
	"repro/internal/retrieve"
	"repro/internal/segment"
	"repro/internal/store"
	"repro/internal/sub"
	"repro/internal/tenant"
	"repro/internal/tier"
	"repro/internal/vidsim"
)

// ladder is the traced pass: one goroutine times calls into each module's
// public functions on the bytes set-up stored, rung by rung:
//
//	api ⊃ server ⊃ {server.snapshot_pin, results, query ⊃ {retrieve ⊃ {segment ⊃ kvstore, codec}, ops}}
//
// It never runs beside a workload. The first half needs the open server;
// the second half closes it and reopens the directory bare, as cmd/vstore
// does, so the bed cannot serve a workload afterwards.
type ladder struct {
	b       *bed
	p       prober
	scratch string
	m       map[string]float64
	err     error
	// lookupsPerWarmQuery is how many results-store hits one warm query
	// makes; storeRungs prices them to find the server's self time.
	lookupsPerWarmQuery float64
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// must latches the first error; later probes still run so that the caller
// sees one error, not a cascade of nil dereferences.
func (l *ladder) must(err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
}

func runLadder(b *bed, p prober, scratch string) (map[string]float64, error) {
	l := &ladder{b: b, p: p, scratch: scratch, m: map[string]float64{}}
	for _, step := range []func(){l.queryRungs, l.servingRungs, l.liveRungs, l.storeRungs} {
		if step(); l.err != nil {
			return nil, l.err
		}
	}
	l.m["segment.stored_bytes_per_video_s"] = b.storedBytesPerVideoS
	return l.m, nil
}

// queryRungs walks the cold Query A ladder from the HTTP surface down to
// the per-stage retrieval and consumption costs.
func (l *ladder) queryRungs() {
	const op = "scan_cold"
	b, ctx := l.b, context.Background()
	b.setBudgets(0, 0)
	cascade, names, err := query.ByName("A")
	l.must(err)
	h, err := startAPI(b.srv)
	if err != nil {
		l.must(err)
		return
	}
	defer h.stop()

	req := api.QueryRequest{Stream: stream, Accuracy: queryAcc, To: b.segs}
	l.p.run(op, "api.query_cold", "", func() {
		_, _, err := h.client().Query(ctx, req)
		l.must(err)
	})
	l.m["server.query_cold_ms"] = ms(l.p.run(op, "server.query_cold", "api.query_cold", func() {
		_, err := b.srv.Query(ctx, stream, cascade, names, queryAcc, 0, b.segs)
		l.must(err)
	}))
	l.m["server.snapshot_pin_us"] = us(l.p.run(op, "server.snapshot_pin", "server.query_cold", func() {
		snap, err := b.srv.Snapshot()
		l.must(err)
		l.must(snap.Release())
	}))

	snap, err := b.srv.Snapshot()
	if err != nil {
		l.must(err)
		return
	}
	defer snap.Release()
	var bind query.Binding
	var stages []binding
	for _, name := range names {
		bd, err := bindingFor(b.cfg, name, queryAcc)
		l.must(err)
		stages = append(stages, bd)
		bind = append(bind, query.StageBinding{CF: bd.cf, SF: bd.sf})
	}
	var last query.Result
	engine := func(workers int) func() {
		return func() {
			e := query.Engine{Store: snap, Workers: workers}
			res, err := e.Run(ctx, stream, cascade, bind, 0, b.segs)
			l.must(err)
			last = res
		}
	}
	wn := l.p.run(op, "query.run_wn", "server.query_cold", engine(runtime.GOMAXPROCS(0)))
	w1 := l.p.run(op, "query.run_w1", "", engine(1))
	l.m["query.run_wn_ms"] = ms(wn)
	l.m["query.run_w1_ms"] = ms(w1)
	l.m["query.parallel_speedup"] = float64(w1) / float64(wn)
	if l.err != nil {
		return
	}

	// Per stage: the unit cost of retrieving and of consuming one frame at
	// the stage's binding, times the frames the engine itself reports
	// consuming. The two sums against run_w1 are Fig. 6 on wall-clock.
	var retrieval, consumption float64
	for i, bd := range stages {
		short := strings.ToLower(strings.ReplaceAll(names[i], "-", ""))
		operator, err := ops.ByName(names[i])
		l.must(err)
		var frames []*frame.Frame
		r := retrieve.Retriever{Store: snap}
		tr := l.p.run(op, "retrieve.range."+short, "query.run_w1", func() {
			frames, _, err = r.RangeTagged(ctx, stream, bd.sf, bd.cf, 0, b.segs, nil, "")
			l.must(err)
		})
		if l.err != nil || len(frames) == 0 {
			l.must(fmt.Errorf("ladder: no frames at %s", bd.name))
			return
		}
		to := l.p.run(op, "ops.run."+short, "query.run_w1", func() {
			ops.RunAtFidelity(operator, frames, bd.cf.Fidelity)
		})
		consumed := float64(last.StageStats[i].FramesConsumed)
		perFrame := 1 / float64(len(frames))
		stageRet := ms(tr) * perFrame * consumed
		stageOps := ms(to) * perFrame * consumed
		retrieval += stageRet
		consumption += stageOps
		l.m["ops."+short+"_us_per_frame"] = us(to) * perFrame
		l.m["query.frames_consumed."+short] = consumed
		if short == "nn" {
			l.m["query.retrieval_over_consumption.nn"] = stageRet / stageOps
		}
	}
	l.m["query.retrieval_ms"] = retrieval
	l.m["query.consumption_ms"] = consumption
	l.m["query.engine_self_ms"] = ms(w1) - retrieval - consumption
	l.m["trace.coverage"] = (retrieval + consumption) / ms(w1)

	var bytesRead int64
	for _, bd := range b.sweep {
		_, st, err := retrieveBinding(ctx, snap, bd, b.segs)
		l.must(err)
		bytesRead += st.BytesRead
	}
	l.m["segment.bytes_read_per_sweep"] = float64(bytesRead)
}

// servingRungs times the warm path serve_warm lives on: the HTTP surface,
// the in-process query it wraps, the gate, and one router hop.
func (l *ladder) servingRungs() {
	const op = "serve_warm"
	b, ctx := l.b, context.Background()
	b.setBudgets(1<<30, 64<<20)
	defer b.setBudgets(0, 0)
	cascade, names, err := query.ByName("A")
	l.must(err)
	h, err := startAPI(b.srv)
	if err != nil {
		l.must(err)
		return
	}
	defer h.stop()
	whole := api.QueryRequest{Stream: stream, Accuracy: queryAcc, To: b.segs}
	chunked := whole
	chunked.Chunk = 1
	ask := func(c *api.Client, req api.QueryRequest) func() {
		return func() {
			_, _, err := c.Query(ctx, req)
			l.must(err)
		}
	}
	ask(h.client(), whole)() // fill the results store for both shapes
	ask(h.client(), chunked)()

	http0 := l.p.run(op, "api.query_warm", "", ask(h.client(), whole))
	http1 := l.p.run(op, "api.query_warm_chunked", "", ask(h.client(), chunked))
	hits0 := b.srv.ResultsStats().Hits
	calls := 0
	warm := l.p.run(op, "server.query_warm", "api.query_warm", func() {
		_, err := b.srv.Query(ctx, stream, cascade, names, queryAcc, 0, b.segs)
		l.must(err)
		calls++
	})
	l.m["server.query_warm_us"] = us(warm)
	l.m["api.http_overhead_us"] = us(http0 - warm)
	l.m["api.chunk_overhead_us"] = us(http1-http0) / float64(b.segs)
	l.lookupsPerWarmQuery = float64(b.srv.ResultsStats().Hits-hits0) / float64(calls)

	body, err := json.Marshal(whole)
	l.must(err)
	resp, err := h.http.Post(h.url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		l.must(err)
		return
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	l.must(err)
	l.m["api.response_bytes_per_query"] = float64(n)

	gate := tenant.NewGate(2*runtime.GOMAXPROCS(0), 2*runtime.GOMAXPROCS(0))
	def := tenant.NewRegistry(nil, nil).Default()
	l.m["tenant.gate_acquire_us"] = us(l.p.run(op, "tenant.gate_acquire", "api.query_warm", func() {
		release, _, err := gate.Acquire(ctx, def)
		l.must(err)
		release()
	}))

	router, err := cluster.NewRouter(cluster.Options{Nodes: []cluster.Node{{Name: "n1", URL: h.url}}})
	if err != nil {
		l.must(err)
		return
	}
	addr, err := router.Start("127.0.0.1:0")
	if err != nil {
		l.must(err)
		return
	}
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		_ = router.Shutdown(sctx) // nothing is in flight; a late drain loses nothing
	}()
	via := &api.Client{BaseURL: "http://" + addr.String(), HTTP: h.http}
	ask(via, chunked)()
	routed := l.p.run(op, "cluster.router_query", "", ask(via, chunked))
	l.m["cluster.router_hop_us"] = us(routed - http1)
}

// liveRungs times the write side with nothing else running: one segment
// through the live pipeline, one standing-query evaluation, one idle
// commit-to-push, and one transcode per storage-format class.
func (l *ladder) liveRungs() {
	const op = "live_ingest"
	b, ctx := l.b, context.Background()
	b.setBudgets(0, 0)
	clip := b.clip(0)

	st, err := b.srv.StartStream("ladder-ingest")
	if err != nil {
		l.must(err)
		return
	}
	l.m["server.ingest_segment_ms"] = ms(l.p.run(op, "server.ingest_segment", "", func() {
		l.must(st.Submit(clip))
		st.Drain()
	}))
	l.must(b.srv.StopStream("ladder-ingest"))

	hub := sub.NewHub(b.srv, sub.HubOptions{})
	defer hub.Close()
	s, err := hub.Subscribe(sub.Request{Stream: "ladder-push", Query: "A", Accuracy: queryAcc})
	if err != nil {
		l.must(err)
		return
	}
	st, err = b.srv.StartStream("ladder-push")
	if err != nil {
		l.must(err)
		return
	}
	var pushMs []float64
	for i := 0; i < l.p.minReps; i++ {
		l.must(st.Submit(clip))
		p, ok := <-s.Out()
		if !ok {
			l.must(fmt.Errorf("ladder: subscription ended: %v", s.Err()))
			return
		}
		t1 := time.Now()
		l.p.rec.add(op, "sub.commit_to_push", "", p.Enqueued, t1)
		pushMs = append(pushMs, ms(t1.Sub(p.Enqueued)))
	}
	l.must(b.srv.StopStream("ladder-push"))
	snap, err := b.srv.Snapshot()
	if err != nil {
		l.must(err)
		return
	}
	eval := l.p.run(op, "sub.eval", "sub.commit_to_push", func() {
		_, err := b.srv.Evaluate(ctx, snap, store.Request{Stream: "ladder-push", Query: "A", Accuracy: queryAcc, Seg0: 0, Seg1: 1})
		l.must(err)
	})
	l.must(snap.Release())
	l.m["sub.eval_ms"] = ms(eval)
	l.m["sub.push_overhead_ms"] = median(pushMs) - ms(eval)

	scratch, closeScratch, err := l.scratchStore("transcode")
	if err != nil {
		l.must(err)
		return
	}
	defer closeScratch()
	idx := 0
	for class, sf := range l.classes() {
		ing := ingest.Ingester{Store: scratch, SFs: []format.StorageFormat{sf}}
		l.m["ingest.transcode_"+class+"_ms"] = ms(l.p.run(op, "ingest.transcode_"+class, "server.ingest_segment", func() {
			_, _, err := ing.TranscodeSegment(clip, "scratch", sf, idx)
			l.must(err)
			idx++
		}))
	}
}

// classes picks one storage format per class the configuration derives:
// the raw one, the golden one, and the sparsest encoded one.
func (l *ladder) classes() map[string]format.StorageFormat {
	d := l.b.cfg.Derivation
	out := map[string]format.StorageFormat{"golden": d.SFs[d.Golden].SF}
	for i, sf := range d.SFs {
		switch {
		case sf.SF.Coding.Raw:
			out["raw"] = sf.SF
		case i != d.Golden:
			if cur, ok := out["sparse"]; !ok || sf.SF.Fidelity.Sampling.Fraction() < cur.Fidelity.Sampling.Fraction() {
				out["sparse"] = sf.SF
			}
		}
	}
	return out
}

// scratchStore opens an empty tiered store for probes that write.
func (l *ladder) scratchStore(name string) (*segment.Store, func(), error) {
	ts, err := tier.Open(filepath.Join(l.scratch, name), tier.Options{Shards: 4, Route: segment.RouteKey})
	if err != nil {
		return nil, nil, err
	}
	return segment.NewStore(ts), func() {
		ts.Close()
		os.RemoveAll(filepath.Join(l.scratch, name))
	}, nil
}

// storeRungs closes the server and reopens its directory with tier.Open +
// segment.NewStore, then times the layers under retrieval: kvstore and tier
// reads and writes, segment records, the codec, the retriever with and
// without its cache, and the results store.
func (l *ladder) storeRungs() {
	const op = "retrieve_stream"
	b := l.b
	l.must(b.srv.Close())
	ts, err := tier.Open(filepath.Join(b.dir, "segments"), tier.Options{Route: segment.RouteKey})
	if err != nil {
		l.must(err)
		return
	}
	defer ts.Close()
	segs := segment.NewStore(ts)
	scratch, closeScratch, err := l.scratchStore("puts")
	if err != nil {
		l.must(err)
		return
	}
	defer closeScratch()
	classes := l.classes()
	raw, golden, sparse := classes["raw"], classes["golden"], classes["sparse"]

	// One record per class, found the way the scrubber finds them.
	var goldenKey, coldKey, rawFrameKey string
	for _, k := range ts.Keys("") {
		ref, ok := segment.ParseKey(k)
		if !ok || ref.Stream != stream || ref.Idx != 0 {
			continue
		}
		switch {
		case ref.SFKey == golden.Key() && !ref.Raw:
			goldenKey = k
		case ref.SFKey == sparse.Key() && !ref.Raw:
			coldKey = k
		case ref.SFKey == raw.Key() && ref.Raw && strings.Count(k, "/") > strings.Count(rawFrameKey, "/"):
			rawFrameKey = k // the deepest key of the segment is a frame record
		}
	}
	if goldenKey == "" || coldKey == "" || rawFrameKey == "" {
		l.must(errors.New("ladder: the store lacks a raw, a golden or a sparse record of segment 0"))
		return
	}
	var value []byte
	get := l.p.run(op, "kvstore.get", "segment.get_encoded", func() {
		value, err = ts.Get(goldenKey)
		l.must(err)
	})
	l.m["kvstore.get_us"] = us(get)
	l.m["kvstore.get_mb_per_s"] = float64(len(value)) / 1e6 / get.Seconds()
	l.m["tier.get_cold_us"] = us(l.p.run(op, "tier.get_cold", "", func() {
		_, err := ts.Get(coldKey)
		l.must(err)
	}))
	n := 0
	put := l.p.run(op, "kvstore.put", "segment.put_encoded", func() {
		l.must(scratch.KV().Put(fmt.Sprintf("probe/%06d", n), value))
		n++
	})
	l.m["kvstore.put_us"] = us(put)
	l.m["kvstore.put_mb_per_s"] = float64(len(value)) / 1e6 / put.Seconds()
	prefix := rawFrameKey[:strings.LastIndexByte(rawFrameKey, '/')+1]
	l.m["kvstore.keys_prefix_us"] = us(l.p.run(op, "kvstore.keys_prefix", "segment.get_raw", func() {
		if len(ts.Keys(prefix)) == 0 {
			l.must(errors.New("ladder: no raw frame keys under " + prefix))
		}
	}))

	var enc *codec.Encoded
	getEnc := l.p.run(op, "segment.get_encoded", "retrieve.segment_encoded", func() {
		enc, err = segs.GetEncoded(stream, golden, 0)
		l.must(err)
	})
	l.m["segment.get_encoded_us"] = us(getEnc)
	var rawFrames []*frame.Frame
	getRaw := l.p.run(op, "segment.get_raw", "retrieve.segment_raw", func() {
		rawFrames, _, err = segs.GetRaw(stream, raw, 0, nil)
		l.must(err)
	})
	l.m["segment.get_raw_ms"] = ms(getRaw)
	sixth := format.Sampling{Num: 1, Den: 6}
	l.m["segment.get_raw_sampled_ms"] = ms(l.p.run(op, "segment.get_raw_sampled", "", func() {
		_, _, err := segs.GetRaw(stream, raw, 0, sixth.Keep)
		l.must(err)
	}))
	if l.err != nil {
		return
	}
	n = 0
	l.m["segment.put_encoded_us"] = us(l.p.run(op, "segment.put_encoded", "", func() {
		l.must(scratch.PutEncoded("scratch", golden, n, enc))
		n++
	}))
	n = 0
	l.m["segment.put_raw_ms"] = ms(l.p.run(op, "segment.put_raw", "", func() {
		l.must(scratch.PutRaw("scratch", raw, n, rawFrames))
		n++
	}))

	// codec, on the golden segment and on one rendered one.
	var decoded []*frame.Frame
	var cst codec.Stats
	full := l.p.run(op, "codec.decode_full", "", func() {
		decoded, cst, err = enc.Decode()
		l.must(err)
	})
	l.m["codec.decode_full_ms"] = ms(full)
	l.m["codec.decode_mpix_per_s"] = float64(cst.Pixels()) / 1e6 / full.Seconds()
	sampled := func(s format.Sampling) func() {
		keep := make([]bool, enc.N)
		for _, i := range codec.SelectPositions(enc.PTSList(), s) {
			keep[i] = true
		}
		return func() {
			_, _, err := enc.DecodeSampled(func(i int) bool { return keep[i] })
			l.must(err)
		}
	}
	dec6 := l.p.run(op, "codec.decode_sampled_6", "retrieve.segment_encoded", sampled(sixth))
	l.m["codec.decode_sampled_6_ms"] = ms(dec6)
	l.m["codec.decode_sampled_30_ms"] = ms(l.p.run(op, "codec.decode_sampled_30", "", sampled(format.Sampling{Num: 1, Den: 30})))
	gw, gh := vidsim.Dims(golden.Fidelity.Res)
	source := codec.ApplyFidelity(b.clip(0), golden.Fidelity, gw, gh)
	var est codec.Stats
	encode := l.p.run(op, "codec.encode_golden", "ingest.transcode_golden", func() {
		_, est, err = codec.Encode(source, codec.ParamsFor(golden))
		l.must(err)
	})
	l.m["codec.encode_golden_ms"] = ms(encode)
	l.m["codec.encode_mpix_per_s"] = float64(est.Pixels()) / 1e6 / encode.Seconds()
	nn, err := bindingFor(b.cfg, "NN", queryAcc)
	l.must(err)
	diff, err := bindingFor(b.cfg, "Diff", queryAcc)
	l.must(err)
	convert := func(src []*frame.Frame, to format.ConsumptionFormat) func() {
		w, h := vidsim.Dims(to.Fidelity.Res)
		return func() { codec.ApplyFidelity(src, to.Fidelity, w, h) }
	}
	l.m["codec.convert_encoded_ms"] = ms(l.p.run(op, "codec.convert_encoded", "", convert(decoded, nn.cf)))
	l.m["codec.convert_raw_ms"] = ms(l.p.run(op, "codec.convert_raw", "", convert(rawFrames, diff.cf)))
	var wire []byte
	l.m["codec.marshal_us"] = us(l.p.run(op, "codec.marshal", "segment.put_encoded", func() { wire = enc.Marshal() }))
	l.m["codec.unmarshal_us"] = us(l.p.run(op, "codec.unmarshal", "segment.get_encoded", func() {
		_, err := codec.Unmarshal(wire)
		l.must(err)
	}))
	l.m["codec.encoded_bytes_per_video_s"] = float64(enc.Size()) / segment.Seconds

	// retrieve: cold on an encoded and on a raw binding, then the cache.
	nn95, err := bindingFor(b.cfg, "NN", sweepAccs[0])
	l.must(err)
	diff95, err := bindingFor(b.cfg, "Diff", sweepAccs[0])
	l.must(err)
	if l.err != nil {
		return
	}
	fetch := func(r *retrieve.Retriever, bd binding, idx func() int) func() {
		return func() {
			_, _, err := r.SegmentTagged(stream, bd.sf, bd.cf, idx(), nil, "")
			l.must(err)
		}
	}
	zero := func() int { return 0 }
	cold := &retrieve.Retriever{Store: segs}
	segEnc := l.p.run(op, "retrieve.segment_encoded", "", fetch(cold, nn95, zero))
	segRaw := l.p.run(op, "retrieve.segment_raw", "", fetch(cold, diff95, zero))
	l.m["retrieve.segment_encoded_ms"] = ms(segEnc)
	l.m["retrieve.segment_raw_ms"] = ms(segRaw)
	l.m["retrieve.self_share"] = 1 - float64(getEnc+dec6+getRaw)/float64(segEnc+segRaw)
	warm := &retrieve.Retriever{Store: segs, Cache: retrieve.NewCache(1 << 30)}
	fetch(warm, diff95, zero)()
	l.m["retrieve.cache_hit_us"] = us(l.p.run(op, "retrieve.cache_hit", "", fetch(warm, diff95, zero)))
	// A cache with room for one segment at this binding and no more: walking
	// the segments round-robin inserts and evicts on every call.
	var held int64
	for _, f := range rawFrames {
		held += int64(f.Bytes())
	}
	small := &retrieve.Retriever{Store: segs, Cache: retrieve.NewCache(held * 3 / 2)}
	n = 0
	walk := func() int { n++; return n % b.segs }
	fetch(small, diff95, walk)()
	l.m["retrieve.cache_put_evict_us"] = us(l.p.run(op, "retrieve.cache_put_evict", "", fetch(small, diff95, walk)) - segRaw)

	// results, over the reopened store, with entries the size of one
	// segment's share of the reference answer.
	rs := results.New(ts, 64<<20, nil)
	entry := results.Entry{PTS: make([]int, 40), Detections: make([]ops.Detection, 80)}
	for i := range entry.Detections {
		entry.Detections[i] = ops.Detection{PTS: i, Label: "car", X: 0.5, Y: 0.5}
	}
	key := func(i int) results.Key {
		return results.Key{Stream: "ladder", Seg: i, Op: "NN", SF: golden.Key(), CF: nn.cf.Fidelity.Key()}
	}
	n = 0
	l.m["results.put_us"] = us(l.p.run("serve_warm", "results.put", "", func() {
		_, gen, _ := rs.Get(key(n))
		rs.Put(key(n), entry, gen)
		n++
	}))
	l.m["results.get_us"] = us(l.p.run("serve_warm", "results.get", "server.query_warm", func() {
		if _, _, ok := rs.Get(key(0)); !ok {
			l.must(errors.New("ladder: results.Get missed a stored entry"))
		}
	}))
	rangeKey := results.Key{Stream: "ladder", Seg: 0, End: b.segs, Op: "Diff", SF: raw.Key(), CF: diff.cf.Fidelity.Key()}
	covered := make([]int, b.segs)
	for i := range covered {
		covered[i] = i
	}
	rangeEntry := entry
	rangeEntry.Segs = covered
	_, gen, _ := rs.GetRange(rangeKey, covered)
	rs.Put(rangeKey, rangeEntry, gen)
	l.m["results.get_range_us"] = us(l.p.run("serve_warm", "results.get_range", "server.query_warm", func() {
		if _, _, ok := rs.GetRange(rangeKey, covered); !ok {
			l.must(errors.New("ladder: results.GetRange missed a stored entry"))
		}
	}))
	l.m["server.self_us"] = l.m["server.query_warm_us"] - l.m["server.snapshot_pin_us"] - l.lookupsPerWarmQuery*l.m["results.get_us"]
}
