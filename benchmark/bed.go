package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/ops"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/vidsim"
)

const (
	scene  = "jackson"
	stream = "cam"
	// queryAcc is the accuracy of every Query-A request the benchmark sends.
	queryAcc = 0.9
	// profileClip is `vstore configure -clip 120`.
	profileClip = 120
)

// sweepAccs are the accuracies whose Diff/S-NN/NN bindings make up one
// retrieve_stream sweep: dense raw, sparse raw, encoded 1/6 and the
// cold-tier encoded 1/30.
var sweepAccs = []float64{0.95, 0.8}

// derived is the configuration the benchmark runs under, with what
// deriving it cost.
type derived struct {
	cfg             *core.Config
	ConfigureS      float64 `json:"configure_s"`
	ConsumptionRuns int     `json:"consumption_runs"`
	StorageRuns     int     `json:"storage_runs"`
	Config          []byte  `json:"config"`
}

// loadConfig returns the configuration `vstore configure -clip 120`
// derives. Deriving takes ~18 s of profiling, more than a whole run may
// cost, so it is treated as part of the build: derived once per binary,
// kept under cacheDir keyed by the binary's hash, and loaded from there by
// every later run of the same build. It is not part of setup_s.
func loadConfig(cacheDir string) (*derived, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cacheDir, "config-"+hex.EncodeToString(h.Sum(nil)[:8])+".json")
	if b, err := os.ReadFile(path); err == nil {
		var d derived
		if err := json.Unmarshal(b, &d); err == nil {
			if d.cfg, err = core.FromBytes(d.Config); err == nil {
				return &d, nil
			}
		}
	}
	fmt.Fprintf(os.Stderr, "bench: deriving the configuration (clip %d, 24 consumers); cached in %s\n", profileClip, path)
	env := experiments.NewEnv(profileClip)
	t0 := time.Now()
	cfg, err := core.Configure(env.StandardConsumers(), core.Options{StorageProfiler: env.Profiler(scene)})
	if err != nil {
		return nil, err
	}
	d := &derived{cfg: cfg, ConfigureS: time.Since(t0).Seconds()}
	for _, name := range []string{scene, "dashcam"} {
		c := env.Profiler(name).Counters()
		d.ConsumptionRuns += c.ConsumptionRuns
		d.StorageRuns += c.StorageRuns
	}
	if d.Config, err = cfg.MarshalBytes(); err != nil {
		return nil, err
	}
	b, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: core.Configure took %.1f s (%d consumption runs, %d storage runs)\n",
		d.ConfigureS, d.ConsumptionRuns, d.StorageRuns)
	return d, nil
}

// smokeConfig is a hand-written configuration of the derived one's shape
// (raw 540p, golden 720p, cold sparse 720p) for the smoke test, which has
// no time to profile, nor to encode at the slowest speed step. Only Query
// A's consumers are bound.
func smokeConfig() *derived {
	fid := func(s string) format.Fidelity {
		f, err := format.ParseFidelity(s)
		if err != nil {
			panic(err)
		}
		return f
	}
	enc := format.Coding{Speed: format.SpeedFastest, KeyframeI: 250}
	sfs := []format.StorageFormat{
		{Fidelity: fid("best-540p-1-100%"), Coding: format.RawCoding},
		{Fidelity: fid("best-720p-1-100%"), Coding: enc},
		{Fidelity: fid("good-720p-1/30-100%"), Coding: enc},
	}
	d := &core.StorageDerivation{Golden: 1}
	for i, sf := range sfs {
		place := core.PlaceFast
		if i == 2 {
			place = core.PlaceCold
		}
		d.SFs = append(d.SFs, core.DerivedSF{SF: sf, Prof: profile.SFProfile{SF: sf}, Placement: place})
	}
	bind := func(op string, acc float64, cf string, sf int) {
		o, err := ops.ByName(op)
		if err != nil {
			panic(err)
		}
		f := fid(cf)
		d.Choices = append(d.Choices, core.ConsumptionChoice{
			Consumer: core.Consumer{Op: o, Target: acc},
			CF:       format.ConsumptionFormat{Fidelity: f},
			Profile:  profile.CFProfile{Fidelity: f, Accuracy: acc, Speed: 1},
		})
		d.Subs = append(d.Subs, sf)
		d.SFs[sf].Consumers = append(d.SFs[sf].Consumers, len(d.Choices)-1)
	}
	bind("Diff", 0.95, "good-540p-1-100%", 0)
	bind("Diff", 0.9, "bad-180p-1-100%", 0)
	bind("Diff", 0.8, "bad-144p-1/6-100%", 0)
	bind("S-NN", 0.95, "bad-144p-1/2-100%", 0)
	bind("S-NN", 0.9, "bad-144p-1/6-100%", 0)
	bind("S-NN", 0.8, "worst-144p-1/30-100%", 0)
	bind("NN", 0.95, "good-720p-1/6-100%", 1)
	bind("NN", 0.9, "bad-720p-1/6-100%", 1)
	bind("NN", 0.8, "good-720p-1/30-100%", 2)
	return &derived{cfg: &core.Config{Derivation: d}}
}

// binding is one (storage format -> consumption format) retrieval.
type binding struct {
	name string
	sf   format.StorageFormat
	cf   format.ConsumptionFormat
}

func bindingFor(cfg *core.Config, op string, acc float64) (binding, error) {
	cf, sf, err := cfg.BindingFor(op, acc)
	return binding{name: fmt.Sprintf("%s@%.2f", op, acc), sf: sf, cf: cf}, err
}

// references are the answers every measured operation is checked against.
// They are computed once over the same surface the workload uses, with one
// query worker and both caches off.
type references struct {
	scan   uint64            // Query A over cam[0,segs), chunk=0, over HTTP
	chunks []uint64          // the same with chunk=1: one hash per segment
	sweep  map[string]uint32 // per sweep binding: checksum of the delivered frames
}

// bed is one set-up store with everything the workloads share.
type bed struct {
	cfg   *core.Config
	dir   string
	srv   *server.Server
	src   *vidsim.Source // renders jackson, for the probes and the live stream
	segs  int
	sweep []binding
	refs  references
	// storedBytesPerVideoS is what set-up's ingest left live in the store
	// per second of video: an exact count.
	storedBytesPerVideoS float64
	// corrupt flips every reference, so each checked operation must fail.
	// Only the smoke test sets it.
	corrupt bool
}

// setUp builds the store the same way for every workload: open with four
// shards, install the configuration, ingest segs segments of jackson into
// cam. It does so `times` times in fresh directories under root, keeps the
// last store and returns the median wall time.
func setUp(cfg *core.Config, root string, segs, times int) (*bed, float64, error) {
	sc, err := vidsim.DatasetByName(scene)
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, 0, err
	}
	var b *bed
	var took []float64
	for i := 0; i < times; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, 0, err
			}
		}
		dir, err := os.MkdirTemp(root, "store")
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		srv, err := server.OpenWith(dir, server.Options{Shards: 4})
		if err != nil {
			return nil, 0, err
		}
		b = &bed{cfg: cfg, dir: dir, srv: srv, src: vidsim.NewSource(sc), segs: segs}
		if err := srv.Reconfigure(cfg); err != nil {
			return nil, 0, err
		}
		before := liveBytes(srv)
		if _, err := srv.Ingest(sc, stream, segs); err != nil {
			return nil, 0, err
		}
		took = append(took, time.Since(t0).Seconds())
		b.storedBytesPerVideoS = float64(liveBytes(srv)-before) / videoSeconds(segs)
	}
	_, queryAOps, err := query.ByName("A")
	if err != nil {
		return nil, 0, err
	}
	seen := map[string]bool{}
	for _, acc := range sweepAccs {
		for _, op := range queryAOps {
			bd, err := bindingFor(cfg, op, acc)
			if err != nil {
				return nil, 0, err
			}
			if k := bd.sf.Key() + ">" + bd.cf.Fidelity.Key(); !seen[k] {
				seen[k] = true
				b.sweep = append(b.sweep, bd)
			}
		}
	}
	return b, median(took), nil
}

func (b *bed) close() error {
	err := b.srv.Close()
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}

// clip renders segment i of jackson at full fidelity.
func (b *bed) clip(i int) []*frame.Frame { return b.src.Clip(i*segment.Frames, segment.Frames) }

func liveBytes(srv *server.Server) int64 {
	st := srv.Stats()
	return st.FastLiveBytes + st.ColdLiveBytes
}

func videoSeconds(segments int) float64 { return float64(segments) * segment.Seconds }

// setBudgets puts the retrieval cache and the results store into the state
// a workload is defined by; zero turns one off.
func (b *bed) setBudgets(cacheBytes, resultsBytes int64) {
	b.srv.SetCacheBudget(cacheBytes)
	b.srv.SetResultsBudget(resultsBytes)
}

// computeReferences fills b.refs. It runs the server with one query worker
// and no caches, then restores the default worker count.
func (b *bed) computeReferences() error {
	b.setBudgets(0, 0)
	b.srv.QueryWorkers = -1
	defer func() { b.srv.QueryWorkers = 0 }()

	h, err := startAPI(b.srv)
	if err != nil {
		return err
	}
	defer h.stop()
	ctx := context.Background()
	whole, _, err := h.client().Query(ctx, api.QueryRequest{Stream: stream, Accuracy: queryAcc, To: b.segs})
	if err != nil {
		return fmt.Errorf("reference query: %w", err)
	}
	b.refs.scan = hashChunks(whole)
	perSeg, _, err := h.client().Query(ctx, api.QueryRequest{Stream: stream, Accuracy: queryAcc, To: b.segs, Chunk: 1})
	if err != nil {
		return fmt.Errorf("reference chunked query: %w", err)
	}
	if len(perSeg) != b.segs {
		return fmt.Errorf("reference chunked query: %d chunks for %d segments", len(perSeg), b.segs)
	}
	b.refs.chunks = nil
	for _, c := range perSeg {
		b.refs.chunks = append(b.refs.chunks, hashChunks([]api.QueryChunk{c}))
	}
	b.refs.sweep = map[string]uint32{}
	snap, err := b.srv.Snapshot()
	if err != nil {
		return err
	}
	defer snap.Release()
	for _, bd := range b.sweep {
		sum, _, err := retrieveBinding(ctx, snap, bd, b.segs)
		if err != nil {
			return fmt.Errorf("reference retrieval %s: %w", bd.name, err)
		}
		b.refs.sweep[bd.name] = sum
	}
	if b.corrupt {
		b.refs.scan ^= 1
		for i := range b.refs.chunks {
			b.refs.chunks[i] ^= 1
		}
		for k := range b.refs.sweep {
			b.refs.sweep[k] ^= 1
		}
	}
	return nil
}

// hashChunks digests what a query answered: every detection's PTS, label
// and position, in order, with chunk boundaries.
func hashChunks(chunks []api.QueryChunk) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, c := range chunks {
		put(uint64(c.Seg0)<<32 | uint64(c.Seg1))
		put(uint64(len(c.Detections)))
		for _, d := range c.Detections {
			put(uint64(d.PTS))
			h.Write([]byte(d.Label))
			put(math.Float64bits(d.X))
			put(math.Float64bits(d.Y))
		}
	}
	return h.Sum64()
}

// hashResult digests an in-process result the way hashChunks digests its
// wire form, so a push and a historical query compare equal.
func hashResult(seg0, seg1 int, res store.Result) uint64 {
	return hashChunks([]api.QueryChunk{api.ChunkFromResult(seg0, seg1, res)})
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksumFrames digests delivered frames: PTS, dimensions and all three
// planes. CRC-32C is hardware-assisted, so checking a sweep costs about one
// percent of retrieving it.
func checksumFrames(frames []*frame.Frame) uint32 {
	var sum uint32
	var buf [12]byte
	for _, f := range frames {
		binary.LittleEndian.PutUint32(buf[0:], uint32(f.PTS))
		binary.LittleEndian.PutUint32(buf[4:], uint32(f.W))
		binary.LittleEndian.PutUint32(buf[8:], uint32(f.H))
		sum = crc32.Update(sum, castagnoli, buf[:])
		sum = crc32.Update(sum, castagnoli, f.Y)
		sum = crc32.Update(sum, castagnoli, f.Cb)
		sum = crc32.Update(sum, castagnoli, f.Cr)
	}
	return sum
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
