package sub_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/erode"
	"repro/internal/ops"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/sub"
	"repro/internal/vidsim"
)

// testConfig derives the three-operator configuration query "B" resolves
// against, with erosion pressure, memoised across tests (derivation
// profiles operators, which is expensive under the race detector).
func testConfig(t testing.TB) *core.Config {
	t.Helper()
	cfgOnce.Do(func() { cfgShared = deriveTestConfig(t) })
	if cfgShared == nil {
		t.Fatal("config derivation failed in an earlier test")
	}
	return cfgShared
}

var (
	cfgOnce   sync.Once
	cfgShared *core.Config
)

func deriveTestConfig(t testing.TB) *core.Config {
	t.Helper()
	sc, err := vidsim.DatasetByName("jackson")
	if err != nil {
		t.Fatal(err)
	}
	p := profile.New(sc)
	p.ClipFrames = 120
	consumers := []core.Consumer{
		{Op: ops.Motion{}, Target: 0.9, Prof: p},
		{Op: ops.License{}, Target: 0.9, Prof: p},
		{Op: ops.OCR{}, Target: 0.9, Prof: p},
	}
	choices := core.DeriveConsumptionFormats(consumers)
	d, err := core.DeriveStorageFormats(choices, core.SFOptions{Profiler: p})
	if err != nil {
		t.Fatal(err)
	}
	const lifespan = 3
	golden := d.SFs[d.Golden].Prof.BytesPerSec * 86400
	floor := d.TotalBytesPerSec()*86400 + float64(lifespan-1)*golden
	full := d.TotalBytesPerSec() * 86400 * float64(lifespan)
	plan, err := core.PlanErosion(d, core.ErosionOptions{
		Profiler: p, LifespanDays: lifespan,
		StorageBudgetBytes: int64(floor + 0.3*(full-floor)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &core.Config{Derivation: d, Erosion: plan}
}

func newStore(t testing.TB) *server.Server {
	t.Helper()
	srv, err := server.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	if err := srv.Reconfigure(testConfig(t)); err != nil {
		t.Fatal(err)
	}
	return srv
}

const testQuery = "B" // Motion+License+OCR resolves against the test config

// TestSubscribeCommitOrderByteIdentical is the acceptance scenario: two
// live streams ingest through their pipelines while a subscriber on each —
// registered before any ingest — consumes pushes, the erosion daemon
// erodes an aged third stream, and batch ingest keeps committing to that
// unsubscribed stream. Each subscriber must receive every committed
// segment of its stream exactly once, in commit order, with every pushed
// chunk byte-identical (at the wire-chunk level) to a post-hoc historical
// query over the same span.
func TestSubscribeCommitOrderByteIdentical(t *testing.T) {
	srv := newStore(t)
	// Cache off: a warm retrieval reports zero virtual retrieval cost, so
	// the post-hoc query would differ in the timing fields.
	srv.SetCacheBudget(0)
	ctx := context.Background()
	jackson, _ := vidsim.DatasetByName("jackson")
	park, _ := vidsim.DatasetByName("park")

	// Prey for the eroder: an unsubscribed stream whose prefix is aged.
	if _, err := srv.Ingest(jackson, "old", 3); err != nil {
		t.Fatal(err)
	}

	hub := sub.NewHub(srv, sub.HubOptions{})
	defer hub.Close()

	segments := 4
	if testing.Short() {
		segments = 2
	}
	streams := []string{"cam0", "cam1"}
	scenes := []vidsim.Scene{jackson, park}
	subs := make([]*sub.Subscription, len(streams))
	for i, name := range streams {
		sn, err := hub.Subscribe(sub.Request{Stream: name, Query: testQuery})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sn
	}

	// The daemon ticks as fast as the firer drives it; only "old" ages, so
	// erosion races the manifest without perturbing the verified streams.
	clock := erode.NewManualClock()
	if _, err := srv.StartErosionDaemon(time.Hour, clock, func(stream string, idx int) int {
		if stream == "old" {
			return 3 - idx
		}
		return 0
	}); err != nil {
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

	// Consumers first: pushes flow while ingest is still running.
	pushes := make([][]sub.Push, len(streams))
	var consumers sync.WaitGroup
	for i := range subs {
		i := i
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			for p := range subs[i].Out() {
				pushes[i] = append(pushes[i], p)
				if len(pushes[i]) == segments {
					return
				}
			}
		}()
	}

	// Feeders: the two subscribed streams ingest through live pipelines;
	// a third feeder batch-commits to the unsubscribed, eroding stream.
	var feeders sync.WaitGroup
	for i, name := range streams {
		i, name := i, name
		if _, err := srv.StartStream(name); err != nil {
			t.Fatal(err)
		}
		feeders.Add(1)
		go func() {
			defer feeders.Done()
			src := vidsim.NewSource(scenes[i])
			live := srv.Stream(name)
			for seg := 0; seg < segments; seg++ {
				if err := live.Submit(src.Clip(seg*segment.Frames, segment.Frames)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	feeders.Add(1)
	go func() {
		defer feeders.Done()
		if _, err := srv.Ingest(jackson, "old", 2); err != nil {
			t.Error(err)
		}
	}()

	feeders.Wait()
	srv.DrainStreams()
	consumers.Wait()
	close(fireDone)
	firer.Wait()
	if err := srv.StopErosionDaemon(); err != nil {
		t.Fatal(err)
	}
	for _, name := range streams {
		if err := srv.StopStream(name); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Stats().ErosionPasses == 0 {
		t.Fatal("erosion daemon never ran a pass during the live phase")
	}

	// Clean detach: every subscription is live (nothing lagged or failed).
	for i, sn := range subs {
		st := sn.Stats()
		if !hub.Unsubscribe(sn.ID()) {
			t.Fatalf("subscriber %d not live at unsubscribe: %+v", i, st)
		}
		if err := sn.Err(); err != nil {
			t.Fatalf("subscriber %d ended with %v", i, err)
		}
		if st.Delivered != int64(segments) || st.Dropped != 0 || st.EvalErrors != 0 {
			t.Fatalf("subscriber %d stats = %+v", i, st)
		}
	}

	// Exactly once, in commit order, byte-identical to the historical path.
	cascade, names, err := query.ByName(testQuery)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range streams {
		got := pushes[i]
		if len(got) != segments {
			t.Fatalf("%s delivered %d pushes, want %d", name, len(got), segments)
		}
		for j, p := range got {
			if p.Seg0 != j || p.Seg1 != j+1 {
				t.Fatalf("%s push %d covers [%d,%d), want [%d,%d)", name, j, p.Seg0, p.Seg1, j, j+1)
			}
			if j > 0 && p.Seq <= got[j-1].Seq {
				t.Fatalf("%s push %d seq %d after %d", name, j, p.Seq, got[j-1].Seq)
			}
			if p.Dropped != 0 {
				t.Fatalf("%s push %d reports %d drops", name, j, p.Dropped)
			}
			ref, err := srv.Query(ctx, name, cascade, names, 0.9, j, j+1)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON := mustMarshal(t, api.ChunkFromResult(p.Seg0, p.Seg1, p.Result))
			wantJSON := mustMarshal(t, api.ChunkFromResult(j, j+1, ref))
			if gotJSON != wantJSON {
				t.Fatalf("%s push %d differs from historical query:\n got %s\nwant %s", name, j, gotJSON, wantJSON)
			}
		}
	}
	if hs := hub.Stats(); hs.Active != 0 || hs.Opened != 2 {
		t.Fatalf("hub stats = %+v", hs)
	}
	if st := srv.Stats(); st.ActiveSnapshots != 0 {
		t.Fatalf("evaluators leaked snapshots: %+v", st)
	}
}

// mustMarshal pins "byte-identical": both sides of a comparison are
// serialised through the same wire struct.
func mustMarshal(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSubscribePolicyDrop: with a one-deep buffer and a consumer that
// reads nothing during ingest, overflowing commits are skipped and
// counted — and the subscription stays alive. Every commit is either
// delivered or counted dropped; none vanish.
func TestSubscribePolicyDrop(t *testing.T) {
	srv := newStore(t)
	hub := sub.NewHub(srv, sub.HubOptions{})
	defer hub.Close()
	sn, err := hub.Subscribe(sub.Request{Stream: "cam", Query: testQuery, Buffer: 1, Policy: sub.PolicyDrop})
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := vidsim.DatasetByName("jackson")
	const total = 6
	if _, err := srv.Ingest(sc, "cam", total); err != nil {
		t.Fatal(err)
	}
	// Ingest has returned, so every commit has been routed: the drop count
	// is final. A one-deep buffer with a blocked consumer absorbs at most
	// two commits (one queued + one in flight), so at least total-2 dropped.
	dropped := sn.Stats().Dropped
	if dropped < total-2 {
		t.Fatalf("dropped = %d, want >= %d", dropped, total-2)
	}
	expect := total - int(dropped)
	var got []sub.Push
	for i := 0; i < expect; i++ {
		p, ok := <-sn.Out()
		if !ok {
			t.Fatalf("out closed after %d pushes (err %v), want %d", i, sn.Err(), expect)
		}
		got = append(got, p)
	}
	last := got[len(got)-1]
	if last.Dropped != dropped {
		t.Fatalf("last push reports %d drops, want %d", last.Dropped, dropped)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatal("pushes out of commit order")
		}
	}
	if err := sn.Err(); err != nil {
		t.Fatalf("drop-policy subscription died: %v", err)
	}
	if !hub.Unsubscribe(sn.ID()) {
		t.Fatal("subscription not live after drops")
	}
	if st := sn.Stats(); st.Delivered != int64(expect) || st.Delivered+st.Dropped != total {
		t.Fatalf("commits unaccounted for: %+v", st)
	}
}

// TestSubscribePolicyDisconnect: the default policy trades liveness for
// gap-freedom — a subscriber that cannot keep up is disconnected with
// ErrLagged instead of silently missing segments.
func TestSubscribePolicyDisconnect(t *testing.T) {
	srv := newStore(t)
	hub := sub.NewHub(srv, sub.HubOptions{})
	defer hub.Close()
	sn, err := hub.Subscribe(sub.Request{Stream: "cam", Query: testQuery, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srv.Ingest(sc, "cam", 4); err != nil {
		t.Fatal(err)
	}
	// Nothing consumed during ingest: the buffer must have overflowed.
	var got []sub.Push
	for p := range sn.Out() {
		got = append(got, p)
	}
	if !errors.Is(sn.Err(), sub.ErrLagged) {
		t.Fatalf("Err = %v, want ErrLagged", sn.Err())
	}
	// What was delivered before the disconnect is gap-free.
	for i, p := range got {
		if p.Seg0 != i || p.Dropped != 0 {
			t.Fatalf("delivered prefix not contiguous: push %d = %+v", i, p)
		}
	}
	// The evaluator detached itself: the hub no longer knows the ID.
	waitFor(t, func() bool { return hub.Stats().Active == 0 })
	if hub.Unsubscribe(sn.ID()) {
		t.Fatal("lagged subscription still registered")
	}
}

// TestSubscribeAdmissionAndValidation covers the subscribe-time error
// surface: bad requests, the subscription cap, and the closed hub.
func TestSubscribeAdmissionAndValidation(t *testing.T) {
	srv := newStore(t)
	hub := sub.NewHub(srv, sub.HubOptions{MaxSubscriptions: 1})
	if _, err := hub.Subscribe(sub.Request{Query: testQuery}); err == nil {
		t.Fatal("missing stream accepted")
	}
	if _, err := hub.Subscribe(sub.Request{Stream: "cam", Query: "nope"}); err == nil {
		t.Fatal("unknown query accepted")
	}
	if _, err := hub.Subscribe(sub.Request{Stream: "cam", Query: testQuery, Rules: []sub.Rule{{MinCount: 0}}}); err == nil {
		t.Fatal("rule with min_count 0 accepted")
	}
	for _, acc := range []float64{1.5, -0.1} {
		if _, err := hub.Subscribe(sub.Request{Stream: "cam", Query: testQuery, Accuracy: acc}); err == nil {
			t.Fatalf("accuracy %v accepted", acc)
		}
	}
	sn, err := hub.Subscribe(sub.Request{Stream: "cam", Query: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Subscribe(sub.Request{Stream: "cam", Query: testQuery}); !errors.Is(err, sub.ErrLimit) {
		t.Fatalf("over-limit subscribe: %v, want ErrLimit", err)
	}
	if !hub.Unsubscribe(sn.ID()) {
		t.Fatal("unsubscribe of a live subscription reported not found")
	}
	if hub.Unsubscribe(sn.ID()) {
		t.Fatal("double unsubscribe reported found")
	}
	// The freed slot is reusable; a hub close then ends it with ErrClosed.
	sn2, err := hub.Subscribe(sub.Request{Stream: "cam", Query: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	hub.Close()
	if _, ok := <-sn2.Out(); ok {
		t.Fatal("push after hub close")
	}
	if !errors.Is(sn2.Err(), sub.ErrClosed) {
		t.Fatalf("Err after close = %v, want ErrClosed", sn2.Err())
	}
	if _, err := hub.Subscribe(sub.Request{Stream: "cam", Query: testQuery}); !errors.Is(err, sub.ErrClosed) {
		t.Fatalf("subscribe after close: %v, want ErrClosed", err)
	}
	hub.Close() // idempotent
}

// TestSubscribeSoak holds one subscription against a continuously
// ingesting live stream for a wall-clock window — 400ms by default, the
// nightly job sets VSTORE_SOAK=60s — while a drop-policy churner with a
// starved buffer exercises the overflow path concurrently. The main
// subscriber must see every segment exactly once, in order, with zero
// drops.
func TestSubscribeSoak(t *testing.T) {
	dur := 400 * time.Millisecond
	if v := os.Getenv("VSTORE_SOAK"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("VSTORE_SOAK: %v", err)
		}
		dur = d
	}
	srv := newStore(t)
	hub := sub.NewHub(srv, sub.HubOptions{})
	defer hub.Close()

	sn, err := hub.Subscribe(sub.Request{Stream: "cam", Query: testQuery, Buffer: 1024})
	if err != nil {
		t.Fatal(err)
	}
	churn, err := hub.Subscribe(sub.Request{Stream: "cam", Query: testQuery, Buffer: 1, Policy: sub.PolicyDrop})
	if err != nil {
		t.Fatal(err)
	}
	_ = churn // never consumed: every commit beyond the first few drops

	var mu sync.Mutex
	var got []sub.Push
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for p := range sn.Out() {
			mu.Lock()
			got = append(got, p)
			mu.Unlock()
		}
	}()

	live, err := srv.StartStream("cam")
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := vidsim.DatasetByName("jackson")
	src := vidsim.NewSource(sc)
	deadline := time.Now().Add(dur)
	segments := 0
	for time.Now().Before(deadline) {
		if err := live.Submit(src.Clip(segments*segment.Frames, segment.Frames)); err != nil {
			t.Fatal(err)
		}
		segments++
	}
	srv.DrainStreams()
	if err := srv.StopStream("cam"); err != nil {
		t.Fatal(err)
	}
	// Every committed segment must reach the subscriber before detaching.
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == segments
	})
	if !hub.Unsubscribe(sn.ID()) {
		t.Fatalf("soak subscriber dead: %v", sn.Err())
	}
	<-consumerDone
	for i, p := range got {
		if p.Seg0 != i || p.Dropped != 0 {
			t.Fatalf("soak push %d = %+v, want segment %d with no drops", i, p, i)
		}
		if i > 0 && p.Seq <= got[i-1].Seq {
			t.Fatalf("soak push %d out of order", i)
		}
	}
	t.Logf("soak: %d segments over %v, churner dropped %d", segments, dur, churn.Stats().Dropped)
}

func waitFor(t testing.TB, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSharedEvaluationDedup: subscriptions with the same stream, cascade
// and accuracy share one cascade evaluation per commit through the hub's
// flight table — three identical subscribers cost one run per segment,
// not three — while a subscription on a different stream keys its own
// flights. Shared pushes carry the leader's QueryResult verbatim, so the
// three subscribers' chunks are identical field for field.
func TestSharedEvaluationDedup(t *testing.T) {
	srv := newStore(t)
	jackson, err := vidsim.DatasetByName("jackson")
	if err != nil {
		t.Fatal(err)
	}
	hub := sub.NewHub(srv, sub.HubOptions{})
	defer hub.Close()

	const segments = 3
	trio := make([]*sub.Subscription, 3)
	for i := range trio {
		sn, err := hub.Subscribe(sub.Request{Stream: "cam", Query: testQuery})
		if err != nil {
			t.Fatal(err)
		}
		trio[i] = sn
	}
	solo, err := hub.Subscribe(sub.Request{Stream: "other", Query: testQuery})
	if err != nil {
		t.Fatal(err)
	}

	// Commits fan out to every subscriber's pending queue (depth 64, far
	// above 3 segments), so batch ingest completes before any draining.
	if _, err := srv.Ingest(jackson, "cam", segments); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Ingest(jackson, "other", segments); err != nil {
		t.Fatal(err)
	}

	drain := func(name string, sn *sub.Subscription) []sub.Push {
		var out []sub.Push
		for p := range sn.Out() {
			out = append(out, p)
			if len(out) == segments {
				return out
			}
		}
		t.Fatalf("%s: subscription ended after %d of %d pushes: %v", name, len(out), segments, sn.Err())
		return nil
	}
	pushes := make([][]sub.Push, len(trio))
	for i, sn := range trio {
		pushes[i] = drain(fmt.Sprintf("trio[%d]", i), sn)
	}
	drain("solo", solo)

	// Two distinct flight keys (one per stream) × segments runs; the two
	// non-leading trio subscribers adopt the shared result every commit.
	st := hub.Stats()
	if st.EvalRuns != 2*segments {
		t.Fatalf("EvalRuns = %d, want %d (one run per stream per segment)", st.EvalRuns, 2*segments)
	}
	if st.EvalShared != 2*segments {
		t.Fatalf("EvalShared = %d, want %d (two adopters per shared segment)", st.EvalShared, 2*segments)
	}

	for j := 0; j < segments; j++ {
		ref, err := json.Marshal(pushes[0][j].Result)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(trio); i++ {
			p := pushes[i][j]
			if p.Seg0 != j || p.Seg1 != j+1 {
				t.Fatalf("trio[%d] push %d covers [%d,%d), want [%d,%d)", i, j, p.Seg0, p.Seg1, j, j+1)
			}
			got, err := json.Marshal(p.Result)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(ref) {
				t.Fatalf("trio[%d] push %d result diverged from trio[0]", i, j)
			}
		}
	}
}
