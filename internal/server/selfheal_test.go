package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/erode"
	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/kvstore"
	"repro/internal/ops"
	"repro/internal/profile"
	"repro/internal/segment"
	"repro/internal/tier"
	"repro/internal/vidsim"
)

var (
	// healLeafSF is the served derived format — encoded, fast tier, the
	// typical victim of bit rot.
	healLeafSF = format.StorageFormat{
		Fidelity: format.Fidelity{Quality: format.QBest, Crop: format.Crop100, Res: 200, Sampling: format.Sampling{Num: 1, Den: 6}},
		Coding:   format.Coding{Speed: format.SpeedFast, KeyframeI: 10},
	}
	// healGoldenSF is a lossless full-fidelity raw golden copy: repairs
	// derived from it are byte-identical to fresh ingest.
	healGoldenSF = format.StorageFormat{
		Fidelity: format.Fidelity{Quality: format.QBest, Crop: format.Crop100, Res: 720, Sampling: format.Sampling{Num: 1, Den: 1}},
		Coding:   format.RawCoding,
	}
)

// selfhealConfig hand-builds a two-format configuration — a subscribed
// encoded leaf on the fast tier and a lossless raw golden on cold — so the
// self-healing tests can assert byte-identity of repaired replicas against
// fresh ingest (derived configurations encode their golden, which makes
// repairs best-effort rather than bit-exact). Caching and result
// materialization are disabled so every query actually reads the replicas
// under test.
func selfhealConfig() *core.Config {
	d := &core.StorageDerivation{
		Choices: []core.ConsumptionChoice{{
			Consumer: core.Consumer{Op: ops.Motion{}, Target: 0.9},
			CF:       format.ConsumptionFormat{Fidelity: healLeafSF.Fidelity},
			Profile:  profile.CFProfile{Fidelity: healLeafSF.Fidelity, Accuracy: 0.95, Speed: 50},
		}},
		Subs: []int{0},
		SFs: []core.DerivedSF{
			{SF: healLeafSF, Prof: profile.SFProfile{SF: healLeafSF, BytesPerSec: 1000, IngestSec: 0.01},
				Placement: core.PlaceFast, Consumers: []int{0}},
			{SF: healGoldenSF, Prof: profile.SFProfile{SF: healGoldenSF, BytesPerSec: 10000, IngestSec: 0.001},
				Placement: core.PlaceCold},
		},
		Golden: 1,
	}
	return &core.Config{
		Derivation: d,
		Runtime:    core.Runtime{CacheBytes: -1, ResultsBytes: -1},
	}
}

func openSelfhealServer(t *testing.T, segments int) *Server {
	t.Helper()
	return openHealServer(t, selfhealConfig(), segments)
}

func openHealServer(t *testing.T, cfg *core.Config, segments int) *Server {
	t.Helper()
	s, err := OpenWith(t.TempDir(), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	sc, err := vidsim.DatasetByName("jackson")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(sc, "cam", segments); err != nil {
		t.Fatal(err)
	}
	return s
}

func assertStoreClean(t *testing.T, s *Server) {
	t.Helper()
	corrupt, meta, err := s.segs.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != 0 || len(meta) != 0 {
		t.Fatalf("store not clean: %d corrupt replicas, %d damaged meta keys", len(corrupt), len(meta))
	}
}

// TestSelfHealEndToEnd is the acceptance walk: corrupt a derived replica,
// query through it byte-identically via the fallback ancestor (no client
// error), let the background repair triggered by the degraded serve
// re-derive it, and verify post-repair reads come from a repaired fast
// copy whose bytes equal fresh ingest.
func TestSelfHealEndToEnd(t *testing.T) {
	const segments = 3
	s := openSelfhealServer(t, segments)
	defer s.Close()
	cascade, names := motionCascade()
	ref, err := s.Query(context.Background(), "cam", cascade, names, 0.9, 0, segments)
	if err != nil {
		t.Fatal(err)
	}
	freshEnc, err := s.segs.GetEncoded("cam", healLeafSF, 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh := freshEnc.Marshal()

	damaged := segment.RefOf("cam", healLeafSF, 1)
	if err := s.segs.DamageRef(damaged); err != nil {
		t.Fatal(err)
	}

	// The query still answers, byte-identically, through the golden
	// fallback — and counts the degraded serve.
	got, err := s.Query(context.Background(), "cam", cascade, names, 0.9, 0, segments)
	if err != nil {
		t.Fatalf("query through damaged replica: %v", err)
	}
	sameDetections(t, ref, got, "degraded serve")
	if st := s.Stats(); st.DegradedServes == 0 {
		t.Fatalf("degraded serve not counted: %+v", st)
	}

	// The degraded serve queued a background repair; wait for it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := s.Stats()
		if st.RepairPending == 0 && st.Repairs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background repair never completed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The repaired replica is byte-identical to fresh ingest, back on its
	// fast tier, and the whole store verifies clean.
	healedEnc, err := s.segs.GetEncoded("cam", healLeafSF, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healedEnc.Marshal(), fresh) {
		t.Fatal("repaired replica differs from fresh ingest")
	}
	if tr, ok := s.segs.TierOf(damaged); !ok || tr != tier.Fast {
		t.Fatalf("repaired replica on tier %v (present=%v), want fast", tr, ok)
	}
	assertStoreClean(t, s)

	// Post-repair queries read the healed fast copy: identical results,
	// no further degraded serves.
	before := s.Stats().DegradedServes
	again, err := s.Query(context.Background(), "cam", cascade, names, 0.9, 0, segments)
	if err != nil {
		t.Fatal(err)
	}
	sameDetections(t, ref, again, "post-repair read")
	if after := s.Stats().DegradedServes; after != before {
		t.Fatalf("post-repair query served degraded: %d -> %d", before, after)
	}
	if s.Degraded() {
		t.Fatal("server still reports degraded after repair")
	}
}

// TestHeaderOnlyRawAnchorHeals: a raw replica whose anchor is the bare
// 16-byte header, as written before anchors carried their frame directory,
// reads as corrupt. The query still answers byte-identically through the
// golden and counts one degraded serve, and a repair rewrites the anchor with
// its directory, after which the replica serves directly again.
func TestHeaderOnlyRawAnchorHeals(t *testing.T) {
	const segments = 3
	rawLeaf := healLeafSF
	rawLeaf.Coding = format.RawCoding
	cfg := selfhealConfig()
	cfg.Derivation.SFs[0].SF, cfg.Derivation.SFs[0].Prof.SF = rawLeaf, rawLeaf
	s := openHealServer(t, cfg, segments)
	defer s.Close()
	s.stopRepairWorker() // the repair below is the test's own, not a background one
	cascade, names := motionCascade()
	ref, err := s.Query(context.Background(), "cam", cascade, names, 0.9, 0, segments)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := s.segs.GetRaw("cam", rawLeaf, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	old := segment.RefOf("cam", rawLeaf, 1)
	anchor := fmt.Sprintf("rawmeta/cam/%s/%08d", old.SFKey, old.Idx)
	mb, err := s.segs.KV().Get(anchor)
	if err != nil {
		t.Fatal(err)
	}
	if len(mb) != 16+4*len(fresh) {
		t.Fatalf("anchor of %d frames is %d bytes", len(fresh), len(mb))
	}
	if err := s.segs.KV().Put(anchor, mb[:16]); err != nil {
		t.Fatal(err)
	}

	got, err := s.Query(context.Background(), "cam", cascade, names, 0.9, 0, segments)
	if err != nil {
		t.Fatalf("query through a header-only anchor: %v", err)
	}
	sameDetections(t, ref, got, "degraded serve")
	if st := s.Stats(); st.DegradedServes != 1 {
		t.Fatalf("%d degraded serves, want 1", st.DegradedServes)
	}

	s.erodeMu.Lock()
	ok, err := s.currentRepairer().RepairRef(old)
	s.erodeMu.Unlock()
	if !ok || err != nil {
		t.Fatalf("RepairRef = %v, %v", ok, err)
	}
	if mb, err := s.segs.KV().Get(anchor); err != nil || len(mb) != 16+4*len(fresh) {
		t.Fatalf("repaired anchor: %d bytes, %v; want %d", len(mb), err, 16+4*len(fresh))
	}
	healed, _, err := s.segs.GetRaw("cam", rawLeaf, 1, nil)
	if err != nil || len(healed) != len(fresh) {
		t.Fatalf("repaired replica: %d frames, %v; want %d", len(healed), err, len(fresh))
	}
	for i := range healed {
		if healed[i].PTS != fresh[i].PTS || !frame.Equal(healed[i], fresh[i]) {
			t.Fatalf("repaired frame %d differs from fresh ingest", i)
		}
	}
	again, err := s.Query(context.Background(), "cam", cascade, names, 0.9, 0, segments)
	if err != nil {
		t.Fatal(err)
	}
	sameDetections(t, ref, again, "post-repair read")
	if st := s.Stats(); st.DegradedServes != 1 {
		t.Fatalf("post-repair query served degraded: %d degraded serves", st.DegradedServes)
	}
}

// TestScrubPassHealsDamage: a scrub pass finds and re-derives a corrupt
// replica without any query touching it, and the erosion daemon's rotation
// runs the same scrub on its tick.
func TestScrubPassHealsDamage(t *testing.T) {
	const segments = 2
	s := openSelfhealServer(t, segments)
	defer s.Close()

	damaged := segment.RefOf("cam", healLeafSF, 0)
	if err := s.segs.DamageRef(damaged); err != nil {
		t.Fatal(err)
	}
	rep, err := s.ScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damaged() != 1 || len(rep.Repaired) != 1 || len(rep.Failed) != 0 {
		t.Fatalf("scrub report: %d damaged, %d repaired, %d failed", rep.Damaged(), len(rep.Repaired), len(rep.Failed))
	}
	if st := s.Stats(); st.ScrubPasses != 1 || st.Repairs != 1 {
		t.Fatalf("scrub stats: %+v", st)
	}
	if s.Degraded() {
		t.Fatal("server degraded after a clean scrub")
	}
	assertStoreClean(t, s)

	// The daemon rotation: damage again, fire a tick, the scrub heals it.
	if err := s.segs.DamageRef(damaged); err != nil {
		t.Fatal(err)
	}
	clock := erode.NewManualClock()
	d, err := s.StartErosionDaemon(time.Hour, clock, func(string, int) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	clock.Fire()
	clock.Fire() // the second tick starting guarantees the first pass finished
	if got := d.Stats().ScrubPasses; got < 1 {
		t.Fatalf("daemon ran %d scrub passes, want >= 1", got)
	}
	if err := s.StopErosionDaemon(); err != nil {
		t.Fatal(err)
	}
	assertStoreClean(t, s)
	if st := s.Stats(); st.ScrubPasses < 3 {
		t.Fatalf("scrub passes not folded into stats: %+v", st)
	}
}

// TestUnhealableDamageReportsDegraded: when the golden replica itself is
// damaged there is no richer ancestor to rebuild from; the scrub reports
// the failure and the server stays degraded until an operator intervenes.
func TestUnhealableDamageReportsDegraded(t *testing.T) {
	s := openSelfhealServer(t, 1)
	defer s.Close()
	if err := s.segs.DamageRef(segment.RefOf("cam", healGoldenSF, 0)); err != nil {
		t.Fatal(err)
	}
	rep, err := s.ScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 1 || len(rep.Repaired) != 0 {
		t.Fatalf("scrub report: %d failed, %d repaired, want 1 / 0", len(rep.Failed), len(rep.Repaired))
	}
	if !s.Degraded() {
		t.Fatal("server not degraded with an unhealable golden replica")
	}
	if st := s.Stats(); st.RepairsFailed != 1 {
		t.Fatalf("failed repair not counted: %+v", st)
	}
	// The derived leaf still serves queries: redundancy is reduced, reads
	// are not.
	cascade, names := motionCascade()
	if _, err := s.Query(context.Background(), "cam", cascade, names, 0.9, 0, 1); err != nil {
		t.Fatalf("query with damaged golden: %v", err)
	}
}

// TestSelfHealUnderConcurrency runs ingest, queries, a damager corrupting
// live replicas, and the demote/erode/scrub daemon rotation all at once
// (the -race gate covers this package): every query answers without error,
// results re-verify byte-identically once quiescent, and a final scrub
// leaves the store clean.
func TestSelfHealUnderConcurrency(t *testing.T) {
	s, err := OpenWith(t.TempDir(), Options{Shards: 2, DemoteAfterDays: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Reconfigure(selfhealConfig()); err != nil {
		t.Fatal(err)
	}
	segments := 4
	if testing.Short() {
		segments = 2
	}
	if _, err := s.StartStream("cam"); err != nil {
		t.Fatal(err)
	}
	age := func(_ string, idx int) int { return s.SegmentsOf("cam") - idx }
	clock := erode.NewManualClock()
	if _, err := s.StartErosionDaemon(time.Hour, clock, age); err != nil {
		t.Fatal(err)
	}
	fireDone := make(chan struct{})
	var firer sync.WaitGroup
	firer.Add(1)
	go func() {
		defer firer.Done()
		for {
			select {
			case <-fireDone:
				return
			default:
				if !clock.TryFire() {
					time.Sleep(time.Millisecond)
				}
			}
		}
	}()

	// Damager: keep corrupting the leaf replica of whatever segments exist.
	damageDone := make(chan struct{})
	var damager sync.WaitGroup
	damager.Add(1)
	go func() {
		defer damager.Done()
		for i := 0; ; i++ {
			select {
			case <-damageDone:
				return
			default:
			}
			if n := s.SegmentsOf("cam"); n > 0 {
				// Damage may race a demotion moving the replica between
				// tiers; a miss is fine, the next round hits.
				_ = s.segs.DamageRef(segment.RefOf("cam", healLeafSF, i%n))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var feeder sync.WaitGroup
	feeder.Add(1)
	go func() {
		defer feeder.Done()
		sc, err := vidsim.DatasetByName("jackson")
		if err != nil {
			t.Error(err)
			return
		}
		src := vidsim.NewSource(sc)
		live := s.Stream("cam")
		for seg := 0; seg < segments; seg++ {
			if err := live.Submit(src.Clip(seg*segFrames, segFrames)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	type observed struct {
		snap *Snapshot
		n    int
		res  QueryResult
	}
	cascade, names := motionCascade()
	var obsMu sync.Mutex
	var observations []observed
	ingestDone := make(chan struct{})
	var queriers sync.WaitGroup
	for q := 0; q < 2; q++ {
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			kept := 0
			for {
				select {
				case <-ingestDone:
					return
				default:
				}
				snap, err := s.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				n := snap.Segments("cam")
				if n == 0 {
					snap.Release()
					continue
				}
				res, err := s.QueryAt(context.Background(), snap, "cam", cascade, names, 0.9, 0, n)
				if err != nil {
					t.Errorf("query under damage: %v", err)
					snap.Release()
					return
				}
				if kept < 8 {
					kept++
					obsMu.Lock()
					observations = append(observations, observed{snap, n, res})
					obsMu.Unlock()
				} else {
					snap.Release()
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}

	feeder.Wait()
	s.DrainStreams()
	close(ingestDone)
	queriers.Wait()
	close(damageDone)
	damager.Wait()
	close(fireDone)
	firer.Wait()
	// A daemon pass may have tripped over a replica the damager had just
	// corrupted (a demotion copy reads it verbatim); that is the fault
	// being injected, and the closing scrub must heal it. Any other error
	// is real.
	if err := s.StopErosionDaemon(); err != nil && !errors.Is(err, kvstore.ErrCorrupt) {
		t.Fatal(err)
	}
	if err := s.StopStream("cam"); err != nil {
		t.Fatal(err)
	}

	if len(observations) == 0 {
		t.Fatal("no queries completed during the damage phase")
	}
	// Quiescent: one final scrub heals whatever the damager's last writes
	// left, then every retained snapshot re-verifies byte-identically.
	if _, err := s.ScrubPass(); err != nil {
		t.Fatal(err)
	}
	assertStoreClean(t, s)
	for i, ob := range observations {
		again, err := s.QueryAt(context.Background(), ob.snap, "cam", cascade, names, 0.9, 0, ob.n)
		if err != nil {
			t.Fatalf("quiescent re-run %d: %v", i, err)
		}
		sameDetections(t, ob.res, again, "live-under-damage vs quiescent")
		ob.snap.Release()
	}
	t.Logf("verified %d live queries; stats %+v", len(observations), s.Stats())
}
