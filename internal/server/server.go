// Package server is the operational façade over the whole store: it owns
// the database directory, tracks configuration epochs, ingests streams
// concurrently, runs queries, and applies erosion.
//
// The server is a live engine (§4.1's always-on store): cameras ingest
// through per-stream streaming pipelines (StartStream) while queries run
// and a background erosion daemon ages footage out, all concurrently.
// Three mechanisms make that safe:
//
//   - a segment manifest (segment.Manifest) records which segments are
//     fully committed, so a multi-record, multi-format segment becomes
//     visible atomically once every storage format is written;
//   - queries read through a snapshot of the manifest (Snapshot/QueryAt),
//     so an in-flight query observes one immutable segment set — never a
//     half-ingested or half-eroded segment, and never post-snapshot
//     shrinkage;
//   - erosion deletes logically first: a segment leaves the manifest (and
//     the retrieval cache) immediately, but its records are physically
//     deleted only after the last snapshot that could read them is
//     released.
//
// Epochs implement §7's "adapting to changes in operators and hardware":
// reconfiguring (after adding operators or accuracy levels) opens a new
// epoch whose storage formats apply only to forthcoming video — transcoding
// existing on-disk video would be expensive — while queries over older
// epochs subscribe each consumer to the cheapest existing storage format
// with satisfiable fidelity. Operators on aged video therefore run at their
// designated accuracies, albeit possibly slower than optimal, exactly as
// the paper prescribes.
package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/erode"
	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/ingest"
	"repro/internal/query"
	"repro/internal/results"
	"repro/internal/retrieve"
	"repro/internal/sched"
	"repro/internal/segment"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/vidsim"
)

// Epoch is one configuration generation: it governs segments ingested while
// it was current.
type Epoch struct {
	ID    int
	Since map[string]int // per stream: first segment index under this epoch
	Cfg   *core.Config
}

// Server owns one store directory. All methods are safe for concurrent use.
type Server struct {
	mu       sync.Mutex
	kv       *tier.Store
	segs     *segment.Store
	manifest *segment.Manifest
	epochs   []*Epoch
	next     map[string]int // per stream: next segment index to ingest
	cache    *retrieve.Cache
	// results materializes finalized per-segment operator outputs in the
	// kvstore (nil when disabled); queries consult it before recomputing
	// and erosion invalidates through it segment by segment.
	results *results.Store
	streams map[string]*ingest.Stream // live streaming-ingest pipelines
	pool    *sched.Pool               // transcode pool, GOMAXPROCS wide; queries make their own
	daemon  *erode.Daemon
	// pastErodePasses accumulates passes of stopped daemons so the
	// ErosionPasses counter stays monotonic across daemon restarts.
	pastErodePasses int64
	closed          bool
	// erodeMu serialises lifecycle passes (demotion, erosion, scrub and
	// background repair): a demoter copying records fast→cold must never
	// interleave with an eroder physically deleting those records, or a
	// deleted segment could be resurrected on the cold tier — and a
	// repair rewriting a replica must never race either of them.
	erodeMu sync.Mutex
	// heal is the self-healing state: repairer, background repair queue
	// and counters (see selfheal.go). heal.repairer is guarded by mu (it
	// is invalidated under mu on Reconfigure); the queue and counters
	// have their own synchronisation.
	heal selfheal
	// placements maps storage-format keys to their derived disk tier,
	// merged across epochs (newest wins) so in-flight ingest of an older
	// epoch's formats still resolves during a reconfiguration.
	placements map[string]core.Placement
	// fastBytes and demoteAfterDays are the resolved demotion knobs (see
	// Options and Runtime).
	fastBytes       int64
	demoteAfterDays int
	demotions       int64 // segment replicas migrated fast→cold
	// tails holds, per stream, the done signal of its newest reservation
	// still in flight: the next reservation waits on it for its commit
	// turn (see commit).
	tails map[string]chan struct{}
	// QueryWorkers is the width of the one pool a query's engine run
	// makes and lends from at every level (segments, GOPs, frame chunks).
	// Queries never draw on the transcode pool. Zero selects GOMAXPROCS;
	// negative values force sequential execution.
	QueryWorkers int
}

const (
	epochKeyPrefix  = "meta/epoch/"
	streamKeyPrefix = "meta/stream/"
)

// Options shapes how a server opens its store. Every field has a working
// zero value; non-zero fields override the persisted Runtime knobs.
type Options struct {
	// Shards is the per-tier shard count when creating a fresh store (an
	// existing store's layout wins). Zero selects the engine default.
	Shards int
	// FastTierBytes caps the fast tier's live bytes (enforced by
	// demotion passes). Zero defers to the configuration's Runtime.
	FastTierBytes int64
	// DemoteAfterDays ages segments off the fast tier. Zero defers to
	// the configuration's Runtime.
	DemoteAfterDays int
}

// Open opens (creating if needed) a server over the given directory,
// restoring epochs and stream positions from the store's metadata.
func Open(dir string) (*Server, error) { return OpenWith(dir, Options{}) }

// OpenWith is Open with explicit engine options. The store is a tiered,
// sharded engine: segment records live in per-shard logs split across a
// fast and a cold tier, routed by stream+segment, with reads falling
// through fast→cold. Demotions interrupted by a crash are completed
// before the manifest is rebuilt.
func OpenWith(dir string, opt Options) (*Server, error) {
	kv, err := tier.Open(filepath.Join(dir, "segments"), tier.Options{
		Shards: opt.Shards,
		Route:  segment.RouteKey,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		kv: kv, segs: segment.NewStore(kv),
		next: map[string]int{}, streams: map[string]*ingest.Stream{},
		tails:           map[string]chan struct{}{},
		pool:            sched.NewPool(0),
		placements:      map[string]core.Placement{},
		fastBytes:       opt.FastTierBytes,
		demoteAfterDays: opt.DemoteAfterDays,
	}
	s.manifest = segment.NewManifest(s.segs.DeleteRef)
	for _, k := range kv.Keys(epochKeyPrefix) {
		b, err := kv.Get(k)
		if err != nil {
			kv.Close()
			return nil, err
		}
		ep, err := decodeEpoch(b)
		if err != nil {
			kv.Close()
			return nil, fmt.Errorf("server: epoch %s: %w", k, err)
		}
		s.epochs = append(s.epochs, ep)
	}
	sort.Slice(s.epochs, func(i, j int) bool { return s.epochs[i].ID < s.epochs[j].ID })
	for _, k := range kv.Keys(streamKeyPrefix) {
		b, err := kv.Get(k)
		if err != nil || len(b) != 8 {
			kv.Close()
			return nil, fmt.Errorf("server: stream position %s corrupt", k)
		}
		s.next[k[len(streamKeyPrefix):]] = int(binary.BigEndian.Uint64(b))
	}
	// The retrieval cache budget travels with the configuration, so a
	// reopened store serves queries exactly as configured. Zero means the
	// configuration is silent (see Reconfigure), so fold newest-to-oldest
	// for the last explicit setting; negative explicitly disables.
	for i := len(s.epochs) - 1; i >= 0; i-- {
		if b := s.epochs[i].Cfg.Runtime.CacheBytes; b != 0 {
			s.cache = retrieve.NewCache(b)
			break
		}
	}
	// The demotion knobs follow the same newest-to-oldest fold; explicit
	// open options win over the configuration.
	for i := len(s.epochs) - 1; i >= 0 && s.fastBytes == 0; i-- {
		s.fastBytes = s.epochs[i].Cfg.Runtime.FastTierBytes
	}
	for i := len(s.epochs) - 1; i >= 0 && s.demoteAfterDays == 0; i-- {
		s.demoteAfterDays = s.epochs[i].Cfg.Runtime.DemoteAfterDays
	}
	if s.fastBytes < 0 {
		s.fastBytes = 0
	}
	if s.demoteAfterDays < 0 {
		s.demoteAfterDays = 0
	}
	// Placement merges oldest-to-newest so the newest epoch's derivation
	// decides where a format's forthcoming segments land.
	for _, ep := range s.epochs {
		for k, p := range ep.Cfg.Placements() {
			s.placements[k] = p
		}
	}
	s.segs.SetPlacement(s.placeFunc())
	// The manifest restarts from the physical record set: a failed
	// transcode cleans up its partial records (see transcode), and a
	// crash's torn tail is truncated by the KV replay, so surviving
	// records were durably committed. (A hard crash in the narrow window
	// between two formats' writes can still leave a format short, which
	// reads exactly like that replica having been eroded; a logically
	// eroded segment whose physical delete was pinned by a snapshot at
	// crash time likewise reappears and is re-eroded by the next pass.)
	// Stream positions are reconciled with the scan: segments written
	// without a server (a store that predates one, or a bare
	// segment.Store, writes no position) must not be overwritten by live
	// ingest starting at a stale index.
	// Each replica is re-committed on the tier its anchor record lives
	// on, so demotions survive a reopen (and an interrupted demotion,
	// already healed by the engine's recovery, reports its settled tier).
	maxIdx := map[string]int{}
	present := map[string]map[int]bool{}
	s.segs.ScanRefs(func(r segment.Ref) {
		t, _ := s.segs.TierOf(r)
		s.manifest.CommitPlaced([]segment.Ref{r}, []tier.ID{t})
		if r.Idx+1 > maxIdx[r.Stream] {
			maxIdx[r.Stream] = r.Idx + 1
		}
		set := present[r.Stream]
		if set == nil {
			set = map[int]bool{}
			present[r.Stream] = set
		}
		set[r.Idx] = true
	})
	for stream, n := range maxIdx {
		if s.next[stream] < n {
			s.next[stream] = n
		}
	}
	// The materialized-results budget follows the cache's fold (zero is
	// silent, negative disables). When enabled, the store adopts entries a
	// previous run persisted, filtered through the segment set the manifest
	// rebuild just observed: results for segments with no surviving replica
	// (eroded or lost while no store was attached) are removed, never
	// adopted — and per-replica staleness beyond that is covered by the
	// query-time visibility gate. When disabled, persisted entries are
	// purged outright: they missed every invalidation while detached, so a
	// later enable must start empty.
	var resultsBytes int64
	for i := len(s.epochs) - 1; i >= 0; i-- {
		if b := s.epochs[i].Cfg.Runtime.ResultsBytes; b != 0 {
			resultsBytes = b
			break
		}
	}
	if resultsBytes > 0 {
		s.results = results.New(kv, resultsBytes, func(stream string, seg int) bool {
			return present[stream][seg]
		})
	} else {
		for _, k := range kv.Keys(results.Prefix) {
			_ = kv.Delete(k)
		}
	}
	return s, nil
}

// Close stops the erosion daemon and every live ingest stream (draining
// their queues), then releases the store.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	streams := s.streams
	s.streams = map[string]*ingest.Stream{}
	s.mu.Unlock()
	s.StopErosionDaemon() // folds its passes into the running total
	s.stopRepairWorker()  // waits for an in-flight repair before the store closes
	for _, st := range streams {
		st.Stop() // drains queued segments while the store is still open
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kv.Close()
}

func encodeEpoch(ep *Epoch) ([]byte, error) {
	cfg, err := ep.Cfg.MarshalBytes()
	if err != nil {
		return nil, err
	}
	// Header: id, #streams, then (len,name,since) entries, then the config.
	out := binary.BigEndian.AppendUint32(nil, uint32(ep.ID))
	out = binary.BigEndian.AppendUint32(out, uint32(len(ep.Since)))
	names := make([]string, 0, len(ep.Since))
	for n := range ep.Since {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out = binary.BigEndian.AppendUint32(out, uint32(len(n)))
		out = append(out, n...)
		out = binary.BigEndian.AppendUint64(out, uint64(ep.Since[n]))
	}
	return append(out, cfg...), nil
}

func decodeEpoch(b []byte) (*Epoch, error) {
	if len(b) < 8 {
		return nil, errors.New("short epoch record")
	}
	ep := &Epoch{ID: int(binary.BigEndian.Uint32(b)), Since: map[string]int{}}
	n := int(binary.BigEndian.Uint32(b[4:]))
	off := 8
	for i := 0; i < n; i++ {
		if off+4 > len(b) {
			return nil, errors.New("truncated epoch record")
		}
		l := int(binary.BigEndian.Uint32(b[off:]))
		off += 4
		if off+l+8 > len(b) {
			return nil, errors.New("truncated epoch record")
		}
		name := string(b[off : off+l])
		off += l
		ep.Since[name] = int(binary.BigEndian.Uint64(b[off:]))
		off += 8
	}
	cfg, err := core.FromBytes(b[off:])
	if err != nil {
		return nil, err
	}
	ep.Cfg = cfg
	return ep, nil
}

// placeFunc returns the segment store's write-time tier resolver. It
// reads the live placement map under mu on every call, so one install at
// Open tracks every later Reconfigure. Unknown formats (foreign or
// pre-placement segments) default to the fast tier.
func (s *Server) placeFunc() segment.PlaceFunc {
	return func(sfKey string) tier.ID {
		s.mu.Lock()
		p, ok := s.placements[sfKey]
		s.mu.Unlock()
		if ok && p == core.PlaceCold {
			return tier.Cold
		}
		return tier.Fast
	}
}

// Reconfigure installs a new configuration epoch. Forthcoming segments of
// every stream are ingested under it; already-stored segments remain under
// their original epochs (§7).
func (s *Server) Reconfigure(cfg *core.Config) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep := &Epoch{ID: len(s.epochs), Since: map[string]int{}, Cfg: cfg}
	for stream, n := range s.next {
		ep.Since[stream] = n
	}
	b, err := encodeEpoch(ep)
	if err != nil {
		return err
	}
	if err := s.kv.Put(fmt.Sprintf("%s%08d", epochKeyPrefix, ep.ID), b); err != nil {
		return err
	}
	s.epochs = append(s.epochs, ep)
	// A zero budget means the configuration is silent on caching — most
	// configurations never populate Runtime — so an operator-set cache
	// (SetCacheBudget) survives. A negative budget explicitly disables.
	if cfg.Runtime.CacheBytes != 0 {
		s.applyCacheBudgetLocked(cfg.Runtime.CacheBytes)
	}
	if cfg.Runtime.ResultsBytes != 0 {
		s.applyResultsBudgetLocked(cfg.Runtime.ResultsBytes)
	}
	// The demotion knobs follow the same zero-is-silent convention.
	if v := cfg.Runtime.FastTierBytes; v != 0 {
		s.fastBytes = max(v, 0)
	}
	if v := cfg.Runtime.DemoteAfterDays; v != 0 {
		s.demoteAfterDays = max(v, 0)
	}
	// The new epoch's derived placement governs forthcoming writes.
	for k, p := range cfg.Placements() {
		s.placements[k] = p
	}
	// The repairer spans every epoch's derivation; rebuild it lazily with
	// the new epoch included.
	s.heal.repairer = nil
	return nil
}

// applyCacheBudgetLocked resizes, creates or drops the retrieval cache to
// match the budget. Caller holds mu.
func (s *Server) applyCacheBudgetLocked(budget int64) {
	switch {
	case budget <= 0:
		s.cache = nil
	case s.cache == nil:
		s.cache = retrieve.NewCache(budget)
	default:
		s.cache.Resize(budget)
	}
}

// SetCacheBudget resizes the retrieval cache at runtime without a
// reconfiguration: a positive budget enables (or resizes) the cache, zero
// or negative disables it.
func (s *Server) SetCacheBudget(budget int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyCacheBudgetLocked(budget)
}

// applyResultsBudgetLocked resizes, creates or drops the materialized-
// results store to match the budget. Disabling purges the persisted
// entries: with no store attached nothing invalidates them, so a later
// enable (or a reopen) must not find them. Enabling at runtime therefore
// always starts empty — disabled states leave no res/ keys behind (see
// OpenWith) — so no validity filter is needed here. Caller holds mu.
func (s *Server) applyResultsBudgetLocked(budget int64) {
	switch {
	case budget <= 0:
		s.results.Purge()
		s.results = nil
	case s.results == nil:
		s.results = results.New(s.kv, budget, nil)
	default:
		s.results.Resize(budget)
	}
}

// SetResultsBudget resizes the materialized-results store at runtime
// without a reconfiguration: a positive budget enables (or resizes) the
// store, zero or negative disables it and purges stored entries.
func (s *Server) SetResultsBudget(budget int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyResultsBudgetLocked(budget)
}

// ResultsStats reports the materialized-results store's activity (zeroes
// when materialization is disabled).
func (s *Server) ResultsStats() results.Stats {
	s.mu.Lock()
	r := s.results
	s.mu.Unlock()
	return r.Stats()
}

// CacheStats reports the retrieval cache's activity (zeroes when the cache
// is disabled).
func (s *Server) CacheStats() retrieve.CacheStats {
	s.mu.Lock()
	c := s.cache
	s.mu.Unlock()
	return c.Stats()
}

// Current returns the active configuration, or nil before the first
// Reconfigure.
func (s *Server) Current() *core.Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.epochs) == 0 {
		return nil
	}
	return s.epochs[len(s.epochs)-1].Cfg
}

// Epochs returns the installed epochs, oldest first.
func (s *Server) Epochs() []*Epoch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Epoch(nil), s.epochs...)
}

// epochOf returns the epoch governing the given segment of the stream.
// Segments written before any epoch opened (without a server, adopted on
// Open) fall to the oldest epoch: its bindings resolve against whatever
// formats those segments actually have, with missing formats skipped like
// eroded segments.
func epochOf(epochs []*Epoch, stream string, seg int) *Epoch {
	var out *Epoch
	for _, ep := range epochs {
		since, ok := ep.Since[stream]
		if !ok {
			since = 0 // stream unknown when the epoch opened: epoch governs from 0
		}
		if seg >= since {
			out = ep
		}
	}
	if out == nil && len(epochs) > 0 {
		out = epochs[0]
	}
	return out
}

// Ingest appends n segments of the scene to the named stream under the
// current epoch — the batch counterpart of the live streaming pipeline
// (StartStream). Each segment is transcoded into every storage format
// concurrently on the shared transcode pool and committed to the segment
// manifest atomically, so queries running concurrently either see a whole
// segment (in every format) or none of it. Up to the pool's width of
// segments are in flight at once: the next segment is cut and starts
// transcoding while the one before it still encodes its golden format,
// and each commits in index order. After the first failure no further
// segment is reserved; those already in flight settle, and the first
// error is returned.
func (s *Server) Ingest(scene vidsim.Scene, stream string, n int) (ingest.Stats, error) {
	src := vidsim.NewSource(scene)
	clip := func(idx int) []*frame.Frame { return src.Clip(idx*segment.Frames, segment.Frames) }
	type settled struct {
		perSF []ingest.SFStats
		cpu   float64
		err   error
	}
	var (
		stats    ingest.Stats
		firstErr error
		failed   atomic.Bool
		inflight []chan settled // oldest first
	)
	fold := func() {
		out := <-inflight[0]
		inflight = inflight[1:]
		mergeSFStats(&stats, out.perSF)
		stats.CPUSeconds += out.cpu
		if out.err == nil {
			stats.Segments++
		} else if firstErr == nil {
			firstErr = out.err
		}
	}
	for i := 0; i < n; i++ {
		if len(inflight) == s.pool.Workers() {
			fold()
		}
		if failed.Load() {
			break
		}
		r, err := s.reserve(stream, clip)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		ch := make(chan settled, 1)
		inflight = append(inflight, ch)
		go func() {
			perSF, cpu, err := s.transcode(r)
			if err != nil {
				failed.Store(true)
			}
			ch <- settled{perSF, cpu, s.commit(r, err)}
		}()
	}
	for len(inflight) > 0 {
		fold()
	}
	return stats, firstErr
}

// mergeSFStats folds one segment's per-format stats into the batch totals,
// matching formats by key (a reconfiguration mid-batch changes the set).
func mergeSFStats(total *ingest.Stats, perSF []ingest.SFStats) {
	for _, one := range perSF {
		found := false
		for i := range total.PerSF {
			if total.PerSF[i].SF == one.SF {
				total.PerSF[i].Bytes += one.Bytes
				total.PerSF[i].CPUSeconds += one.CPUSeconds
				found = true
				break
			}
		}
		if !found {
			total.PerSF = append(total.PerSF, one)
		}
	}
}

// reservation is one segment between reserve and commit: its index, the
// formats of the epoch it was reserved under, and its frames.
type reservation struct {
	stream string
	idx    int
	sfs    []format.StorageFormat
	full   []*frame.Frame
	prev   chan struct{} // done of the stream's previous reservation; nil if none was in flight
	done   chan struct{} // closed once this segment has committed or failed
}

// reserve takes the stream's next segment index and the current epoch's
// storage formats, then cuts the segment's frames via clip on the caller.
// Every reservation must be settled by commit, or the stream's later
// segments never get their commit turn.
func (s *Server) reserve(stream string, clip func(idx int) []*frame.Frame) (*reservation, error) {
	s.mu.Lock()
	if len(s.epochs) == 0 {
		s.mu.Unlock()
		return nil, errors.New("server: no configuration installed; call Reconfigure first")
	}
	r := &reservation{
		stream: stream,
		idx:    s.next[stream],
		sfs:    s.epochs[len(s.epochs)-1].Cfg.StorageFormats(),
		prev:   s.tails[stream],
		done:   make(chan struct{}),
	}
	s.next[stream] = r.idx + 1
	s.tails[stream] = r.done
	s.mu.Unlock()
	r.full = clip(r.idx)
	return r, nil
}

// transcode writes every storage format of the reservation concurrently
// on the shared pool, and each encode borrows the pool's slots that fall
// idle while it runs. On failure it deletes the formats that did land:
// the segment is never committed, so the records are invisible, but
// leaving them would leak disk and resurrect a partial segment when a
// reopen rebuilds the manifest from physical records.
func (s *Server) transcode(r *reservation) ([]ingest.SFStats, float64, error) {
	perSF := make([]ingest.SFStats, len(r.sfs))
	for i := range r.sfs {
		perSF[i].SF = r.sfs[i]
	}
	var (
		stMu     sync.Mutex
		firstErr error
		cpu      float64
	)
	batch := s.pool.Batch()
	for fi := range r.sfs {
		batch.Go(func() {
			one := ingest.Ingester{Store: s.segs, SFs: r.sfs[fi : fi+1], Pool: s.pool}
			bytes, c, err := one.TranscodeSegment(r.full, r.stream, r.sfs[fi], r.idx)
			stMu.Lock()
			defer stMu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			perSF[fi].Bytes += bytes
			perSF[fi].CPUSeconds += c
			cpu += c
		})
	}
	batch.Wait()
	if firstErr != nil {
		for _, sf := range r.sfs {
			_ = s.segs.Delete(r.stream, sf, r.idx)
		}
	}
	return perSF, cpu, firstErr
}

// commit waits for the reservation's commit turn — every lower reserved
// index of the stream committed or failed — so one stream commits in
// index order whoever writes it. If transcoding succeeded (err is nil) it
// then commits the segment to the manifest (atomic visibility) and
// persists the stream's committed position; a failed segment leaves an
// invisible index hole that queries skip, exactly like an eroded segment.
// Either way it passes the turn on, and returns the segment's error.
func (s *Server) commit(r *reservation, err error) error {
	if r.prev != nil {
		<-r.prev
	}
	if err == nil {
		// Each format's replica is recorded on the tier its records were
		// actually written to (the anchor's physical tier, exactly what a
		// reopen rebuilds from) — re-consulting the placement map here
		// could disagree with the writes if a Reconfigure flipped a format
		// mid-transcode, leaving a fast replica the demotion pass would
		// never enumerate.
		refs := make([]segment.Ref, len(r.sfs))
		tiers := make([]tier.ID, len(r.sfs))
		for i, sf := range r.sfs {
			refs[i] = segment.RefOf(r.stream, sf, r.idx)
			tiers[i], _ = s.segs.TierOf(refs[i])
		}
		s.manifest.CommitPlaced(refs, tiers)
	}
	s.mu.Lock()
	if err == nil {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(r.idx+1))
		err = s.kv.Put(streamKeyPrefix+r.stream, buf[:])
	}
	if s.tails[r.stream] == r.done {
		delete(s.tails, r.stream)
	}
	s.mu.Unlock()
	close(r.done)
	return err
}

// SegmentsOf returns how many segments the stream holds.
func (s *Server) SegmentsOf(stream string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next[stream]
}

// StreamSegments returns every known stream with its committed segment
// count — live pipelines and batch-ingested streams alike. The HTTP API's
// /v1/streams endpoint serves this.
func (s *Server) StreamSegments() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.next))
	for name, n := range s.next {
		out[name] = n
	}
	return out
}

// bindingFor resolves one cascade stage for an epoch: the CF comes from the
// CURRENT configuration (operators always run at the latest derived
// consumption formats); the SF is the epoch's cheapest format with
// satisfiable fidelity, preferring the consumer's own subscription when the
// epoch is current (§7).
func (s *Server) bindingFor(ep *Epoch, current *core.Config, opName string, acc float64) (query.StageBinding, error) {
	cf, ownSF, err := current.BindingFor(opName, acc)
	if err != nil {
		return query.StageBinding{}, err
	}
	if ep.Cfg == current {
		return query.StageBinding{CF: cf, SF: ownSF}, nil
	}
	best := -1
	bestBytes := math.Inf(1)
	for i, sf := range ep.Cfg.Derivation.SFs {
		if !sf.SF.Satisfies(cf) {
			continue
		}
		if sf.Prof.BytesPerSec < bestBytes {
			best, bestBytes = i, sf.Prof.BytesPerSec
		}
	}
	if best < 0 {
		// The old epoch cannot satisfy this CF (it predates the operator):
		// fall back to its golden format and cap the CF at what it stores.
		g := ep.Cfg.Derivation.SFs[ep.Cfg.Derivation.Golden].SF
		capped := cf
		if !g.Satisfies(capped) {
			capped.Fidelity = intersectFidelity(capped.Fidelity, g.Fidelity)
		}
		return query.StageBinding{CF: capped, SF: g}, nil
	}
	return query.StageBinding{CF: cf, SF: ep.Cfg.Derivation.SFs[best].SF}, nil
}

// intersectFidelity returns the knob-wise minimum: the richest fidelity
// both arguments can supply.
func intersectFidelity(a, b format.Fidelity) format.Fidelity {
	out := a
	if b.Quality < out.Quality {
		out.Quality = b.Quality
	}
	if b.Crop < out.Crop {
		out.Crop = b.Crop
	}
	if b.Res < out.Res {
		out.Res = b.Res
	}
	if b.Sampling.Fraction() < out.Sampling.Fraction() {
		out.Sampling = b.Sampling
	}
	return out
}

// QueryResult is a server query's outcome: per-epoch results merged, in
// segment order.
type QueryResult = store.Result

// Query runs the cascade at the target accuracy over segments [seg0, seg1)
// of the stream, splitting the range by configuration epoch and resolving
// each stage's formats per epoch. It takes a snapshot of the segment
// manifest at entry and releases it on return, so the whole query — every
// stage, every span — observes one immutable segment set even while
// ingest and the erosion daemon run concurrently. Epoch spans run one
// after another, each as one engine run with one pool of QueryWorkers
// slots: every stage fans its segments across that pool, each segment
// its GOPs and each frame-independent operator its frame chunks, every
// level lending itself only the slots that are free (sched.Ordered's
// TryGo) and otherwise running inline. Results merge in segment (and GOP
// position) order, so the output is identical to fully sequential
// execution.
//
// ctx bounds the query: cancellation (a remote client disconnecting, a
// deadline expiring) is observed between per-segment retrievals, so an
// abandoned query stops consuming its pool promptly and returns
// ctx.Err() — the contract the HTTP API layer depends on. nil is treated
// as context.Background().
func (s *Server) Query(ctx context.Context, stream string, cascade query.Cascade, opNames []string, acc float64, seg0, seg1 int) (QueryResult, error) {
	snap, err := s.Snapshot()
	if err != nil {
		return QueryResult{}, err
	}
	defer snap.Release()
	return s.QueryAt(ctx, snap, stream, cascade, opNames, acc, seg0, seg1)
}

// QueryAt runs the query against an explicitly held snapshot (see
// Snapshot). Callers that hold a snapshot across several queries get
// repeatable reads: segments eroded after the snapshot remain readable
// until the snapshot is released, and segments ingested after it stay
// invisible. Cancellation follows Query's contract: ctx is checked between
// stages and between per-segment retrievals, and a canceled query returns
// ctx.Err() promptly.
func (s *Server) QueryAt(ctx context.Context, snap *Snapshot, stream string, cascade query.Cascade, opNames []string, acc float64, seg0, seg1 int) (QueryResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	epochs := snap.epochs
	if len(epochs) == 0 {
		return QueryResult{}, errors.New("server: no configuration installed")
	}
	current := epochs[len(epochs)-1].Cfg
	s.mu.Lock()
	cache := s.cache
	resStore := s.results
	s.mu.Unlock()
	// Split [seg0, seg1) into epoch-homogeneous ranges.
	type span struct {
		ep     *Epoch
		lo, hi int
	}
	var spans []span
	for seg := seg0; seg < seg1; {
		ep := epochOf(epochs, stream, seg)
		hi := seg1
		for nxt := seg + 1; nxt < seg1; nxt++ {
			if epochOf(epochs, stream, nxt) != ep {
				hi = nxt
				break
			}
		}
		spans = append(spans, span{ep, seg, hi})
		seg = hi
	}

	// Resolve every span's binding up front: bindings are cheap, and a
	// resolution error surfaces before any retrieval work is scheduled.
	bindings := make([]query.Binding, len(spans))
	for i, sp := range spans {
		for _, name := range opNames {
			sb, err := s.bindingFor(sp.ep, current, name, acc)
			if err != nil {
				return QueryResult{}, err
			}
			bindings[i] = append(bindings[i], sb)
		}
	}

	eng := query.Engine{
		Store: snap.view, Cache: cache, Results: resStore, Workers: s.queryWorkers(),
		// A damaged replica rebuilds from its fallback ancestor and the
		// query answers degraded; the serve is counted and the replica
		// queued for background repair.
		Rebuild:    s.rebuildReplica,
		OnDegraded: s.onDegraded,
	}
	// Spans run one after another: each Run fans out on its own pool of
	// the whole worker budget.
	results := make([]query.Result, len(spans))
	var err error
	for i, sp := range spans {
		if results[i], err = eng.Run(ctx, stream, cascade, bindings[i], sp.lo, sp.hi); err != nil {
			break
		}
	}
	// A canceled query reports the cancellation, not whichever span error
	// the abandonment happened to produce.
	if cerr := ctx.Err(); cerr != nil {
		return QueryResult{}, cerr
	}
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{Results: results}, nil
}

// queryWorkers resolves the engine's pool width from QueryWorkers:
// zero selects GOMAXPROCS, negative values force sequential execution.
func (s *Server) queryWorkers() int {
	w := s.QueryWorkers
	if w < 0 {
		return 1
	}
	if w == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// DemotePass migrates committed segment replicas fast→cold: first every
// fast-tier replica at least DemoteAfterDays old (when that knob is set),
// then — if the fast tier still exceeds FastTierBytes — oldest replicas
// until the budget holds, in deterministic oldest-first order. Each
// replica migrates via crash-safe copy-then-delete and flips its manifest
// tier only once durably cold. Concurrent queries are unaffected: reads
// fall through fast→cold, and demoted bytes are identical, so even cached
// frames stay valid. It returns the number of replicas demoted.
func (s *Server) DemotePass(age AgeFunc) (int, error) {
	s.erodeMu.Lock()
	defer s.erodeMu.Unlock()
	s.mu.Lock()
	fastBytes := s.fastBytes
	afterDays := s.demoteAfterDays
	s.mu.Unlock()
	if fastBytes == 0 && afterDays == 0 {
		return 0, nil
	}
	demoted := 0
	demote := func(r segment.Ref) error {
		if err := s.segs.DemoteRef(r); err != nil {
			return fmt.Errorf("server: demoting %v: %w", r, err)
		}
		s.manifest.SetTier(r, tier.Cold)
		demoted++
		// Counted per replica, not folded at return: a later failure in
		// the same pass must not erase the migrations that did happen.
		s.mu.Lock()
		s.demotions++
		s.mu.Unlock()
		return nil
	}
	refs := s.manifest.RefsInTier(tier.Fast)
	if afterDays > 0 {
		kept := refs[:0]
		for _, r := range refs {
			if age(r.Stream, r.Idx) >= afterDays {
				if err := demote(r); err != nil {
					return demoted, err
				}
				continue
			}
			kept = append(kept, r)
		}
		refs = kept
	}
	if fastBytes > 0 {
		for _, r := range refs {
			if s.kv.TierBytes(tier.Fast) <= fastBytes {
				break
			}
			if err := demote(r); err != nil {
				return demoted, err
			}
		}
	}
	return demoted, nil
}

// Erode applies every epoch's erosion plan to the segments it governs.
// ageOfSegment maps a stream's segment index to its age in days. Deletion
// is logical-first: an eroded segment leaves the manifest (and therefore
// every future query snapshot and the retrieval cache) immediately, while
// its records are physically deleted only once no in-flight query snapshot
// can still read them. The background erosion daemon (StartErosionDaemon)
// runs exactly this per stream on every pass.
func (s *Server) Erode(stream string, ageOfSegment func(idx int) int) (int, error) {
	// Serialised against demotion passes: erosion physically deletes
	// records that a concurrent fast→cold copy could otherwise resurrect.
	s.erodeMu.Lock()
	defer s.erodeMu.Unlock()
	s.mu.Lock()
	epochs := append([]*Epoch(nil), s.epochs...)
	resStore := s.results
	s.mu.Unlock()
	e := erode.Eroder{Store: manifestSet{m: s.manifest, store: s.segs, results: resStore}}
	total := 0
	// Eroded segments must not be served from cache — including the ones a
	// partially-failed Apply already deleted, so the invalidation is
	// deferred rather than tied to the success path.
	defer func() {
		if total > 0 {
			s.mu.Lock()
			if s.cache != nil {
				s.cache.Invalidate(stream)
			}
			s.mu.Unlock()
		}
	}()
	for _, ep := range epochs {
		if ep.Cfg.Erosion == nil {
			continue
		}
		d := ep.Cfg.Derivation
		sfs := ep.Cfg.StorageFormats()
		// Only this epoch's segments: wrap the age function to exclude
		// foreign segments by reporting age 0 (never eroded, never expired).
		since := ep.Since[stream]
		until := math.MaxInt
		for _, later := range epochs {
			if later.ID > ep.ID {
				if v, ok := later.Since[stream]; ok && v < until {
					until = v
				}
			}
		}
		age := func(idx int) int {
			if idx < since || idx >= until {
				return 0
			}
			return ageOfSegment(idx)
		}
		n, err := e.Apply(stream, sfs, d.Golden, ep.Cfg.Erosion, age)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Stats is the whole storage path in one value: the tiered engine's
// occupancy and read-corruption counters (embedded) beside what the
// server's own layers count — the retrieval cache, the results store,
// live serving, placement and self-healing. Zero where a layer is off.
type Stats struct {
	tier.Stats

	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	CacheBytes     int64 // bytes of cached frames resident

	ResultsHits          int64
	ResultsMisses        int64
	ResultsBytes         int64 // in-memory footprint of the resident results
	ResultsEntries       int
	ResultsEvictions     int64
	ResultsInvalidations int64 // entries dropped by erosion/deletion

	IngestQueued    int   // segments waiting in live-stream ingest queues
	ErosionPasses   int64 // background erosion daemon passes completed
	ActiveSnapshots int   // query snapshots currently held
	SnapshotsTaken  int64 // query snapshots ever taken

	FastSegments int   // committed segment replicas placed fast
	ColdSegments int   // committed segment replicas placed cold
	Demotions    int64 // segment replicas migrated fast→cold

	DegradedServes int64 // queries answered from a fallback replica
	Repairs        int64 // damaged replicas re-derived successfully
	RepairsFailed  int64 // repair attempts that could not complete
	ScrubPasses    int64 // background scrub passes completed
	RepairPending  int   // damaged replicas queued for repair
}

// Stats snapshots every layer's counters.
func (s *Server) Stats() Stats {
	cs, rs, ms := s.CacheStats(), s.ResultsStats(), s.manifest.Stats()
	st := Stats{
		Stats:                s.kv.Stats(),
		CacheHits:            cs.Hits,
		CacheMisses:          cs.Misses,
		CacheEvictions:       cs.Evictions,
		CacheBytes:           cs.Bytes,
		ResultsHits:          rs.Hits,
		ResultsMisses:        rs.Misses,
		ResultsBytes:         rs.Bytes,
		ResultsEntries:       rs.Entries,
		ResultsEvictions:     rs.Evictions,
		ResultsInvalidations: rs.Invalidations,
		ActiveSnapshots:      ms.ActiveSnapshots,
		SnapshotsTaken:       ms.SnapshotsTaken,
		FastSegments:         ms.FastLive,
		ColdSegments:         ms.ColdLive,
		DegradedServes:       s.heal.degradedServes.Load(),
		Repairs:              s.heal.repairs.Load(),
		RepairsFailed:        s.heal.repairsFailed.Load(),
		ScrubPasses:          s.heal.scrubPasses.Load(),
		RepairPending:        s.RepairPending(),
	}
	s.mu.Lock()
	daemon := s.daemon
	past := s.pastErodePasses
	st.Demotions = s.demotions
	for _, live := range s.streams {
		st.IngestQueued += live.Stats().Queued
	}
	s.mu.Unlock()
	st.ErosionPasses = past + daemon.Stats().Passes
	return st
}

// Compact reclaims garbage space in the underlying store (e.g., after
// erosion deleted many segments), compacting every shard of both tiers
// in parallel on the transcode pool's free slots — shards lock
// independently, so compactions proceed concurrently.
func (s *Server) Compact() error {
	return s.kv.CompactShards(s.pool)
}
