package api_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/vidsim"
)

// TestPeerEndpoints pins the wire surface follower replication reads
// through: under one snapshot lease, replica enumeration and replica bytes
// are byte-identical to the same reads against a local snapshot pinned at
// the same point, erosion after the pin included; a released or unknown
// lease is 404.
func TestPeerEndpoints(t *testing.T) {
	srv, cl := startAPI(t, api.Limits{})
	srv.SetCacheBudget(0) // warm retrievals zero the virtual timing fields
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srv.Ingest(sc, "cam", 3); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	lease, err := cl.PinSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	local, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer local.Release()
	if l, r := mustMarshal(t, local.StreamSegments()), mustMarshal(t, lease.Streams); l != r || local.Segments("cam") != 3 {
		t.Fatalf("pinned lengths: local %s lease %s, want cam=3", l, r)
	}

	// Enumeration: the same replicas in the same order, whole and per format.
	refs := local.RefsOf("cam")
	if len(refs) == 0 {
		t.Fatal("no committed replicas to compare")
	}
	want := make([]api.WireRef, len(refs))
	perSF := map[string][]api.WireRef{}
	for i, ref := range refs {
		want[i] = api.WireRef{SF: ref.SFKey, Raw: ref.Raw, Idx: ref.Idx}
		perSF[ref.SFKey] = append(perSF[ref.SFKey], want[i])
	}
	got, err := cl.Refs(ctx, lease.ID, "cam", "")
	if err != nil {
		t.Fatal(err)
	}
	if l, r := mustMarshal(t, want), mustMarshal(t, got); l != r {
		t.Fatalf("Refs:\nlocal %s\nwire  %s", l, r)
	}
	for sf, wantSF := range perSF {
		gotSF, err := cl.Refs(ctx, lease.ID, "cam", sf)
		if err != nil {
			t.Fatal(err)
		}
		if l, r := mustMarshal(t, wantSF), mustMarshal(t, gotSF); l != r {
			t.Fatalf("Refs(sf=%s):\nlocal %s\nwire  %s", sf, l, r)
		}
	}

	// Erode after the pin: both pins must keep reading what they froze.
	if n, err := srv.Erode("cam", func(idx int) int { return 3 - idx }); err != nil || n == 0 {
		t.Fatalf("erosion deleted %d replicas (err %v); the post-pin read check needs some", n, err)
	}
	after, err := cl.PinSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := cl.Refs(ctx, after.ID, "cam", "")
	if err != nil {
		t.Fatal(err)
	}
	live := map[api.WireRef]bool{}
	for _, wr := range fresh {
		live[wr] = true
	}

	// wireBytes and localBytes read one replica in its transport framing.
	wireBytes := func(id string, ref segment.Ref) ([]byte, error) {
		if ref.Raw {
			frames, err := cl.SegmentRaw(ctx, id, ref.Stream, ref.SFKey, ref.Idx)
			if err != nil {
				return nil, err
			}
			return segment.MarshalRawSegment(frames), nil
		}
		enc, err := cl.SegmentEncoded(ctx, id, ref.Stream, ref.SFKey, ref.Idx)
		if err != nil {
			return nil, err
		}
		return enc.Marshal(), nil
	}
	localBytes := func(ref segment.Ref) []byte {
		t.Helper()
		if ref.Raw {
			frames, _, err := local.GetRawRef(ref)
			if err != nil {
				t.Fatalf("%v: local GetRawRef: %v", ref, err)
			}
			return segment.MarshalRawSegment(frames)
		}
		enc, err := local.GetEncodedRef(ref)
		if err != nil {
			t.Fatalf("%v: local GetEncodedRef: %v", ref, err)
		}
		return enc.Marshal()
	}
	seenRaw, seenEnc, seenEroded := false, false, false
	for i, ref := range refs {
		b, err := wireBytes(lease.ID, ref)
		if err != nil {
			t.Fatalf("%v: leased read: %v", ref, err)
		}
		if !bytes.Equal(b, localBytes(ref)) {
			t.Fatalf("%v: wire bytes differ from the local snapshot's", ref)
		}
		seenRaw = seenRaw || ref.Raw
		seenEnc = seenEnc || !ref.Raw
		if !live[want[i]] {
			seenEroded = true
			if _, err := wireBytes(after.ID, ref); !errors.Is(err, segment.ErrNotFound) {
				t.Fatalf("%v: eroded replica through a post-erosion lease: %v, want ErrNotFound", ref, err)
			}
		}
	}
	if !seenRaw || !seenEnc || !seenEroded {
		t.Fatalf("comparison covered raw=%v encoded=%v eroded-after-pin=%v; want all three", seenRaw, seenEnc, seenEroded)
	}
	if _, err := wireBytes(lease.ID, segment.Ref{Stream: "cam", SFKey: refs[0].SFKey, Raw: refs[0].Raw, Idx: 99}); !errors.Is(err, segment.ErrNotFound) {
		t.Fatalf("out-of-snapshot read: %v, want ErrNotFound", err)
	}

	// Released and unknown leases are 404 on every leased endpoint.
	for _, id := range []string{lease.ID, after.ID} {
		if found, err := cl.ReleaseSnapshot(ctx, id); err != nil || !found {
			t.Fatalf("release of live lease %s: found=%v err=%v", id, found, err)
		}
	}
	if found, err := cl.ReleaseSnapshot(ctx, lease.ID); err != nil || found {
		t.Fatalf("second release: found=%v err=%v, want not found", found, err)
	}
	for _, id := range []string{lease.ID, "no-such-lease"} {
		var se *api.StatusError
		if _, err := cl.Refs(ctx, id, "cam", ""); !errors.As(err, &se) || se.Code != http.StatusNotFound {
			t.Fatalf("Refs under lease %q: %v, want 404", id, err)
		}
		if _, err := wireBytes(id, refs[0]); !errors.Is(err, segment.ErrNotFound) {
			t.Fatalf("segment read under lease %q: %v, want 404 (ErrNotFound)", id, err)
		}
	}
}

// TestPullReplication: a follower pulls a stream from its owner and then
// answers the same queries byte-identically; re-pulling is a no-op.
func TestPullReplication(t *testing.T) {
	srvA, clA := startAPI(t, api.Limits{})
	srvB, clB := startAPI(t, api.Limits{})
	srvA.SetCacheBudget(0)
	srvB.SetCacheBudget(0)
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srvA.Ingest(sc, "cam", 3); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	pulled, err := clB.Pull(ctx, api.PullRequest{Stream: "cam", Source: clA.BaseURL})
	if err != nil {
		t.Fatal(err)
	}
	if pulled.Segments != 3 {
		t.Fatalf("pull adopted %d segments, want 3", pulled.Segments)
	}
	again, err := clB.Pull(ctx, api.PullRequest{Stream: "cam", Source: clA.BaseURL})
	if err != nil {
		t.Fatal(err)
	}
	if again.Segments != 0 {
		t.Fatalf("re-pull adopted %d segments, want 0 (idempotent)", again.Segments)
	}

	// The replica serves the same results as the original.
	ca, _, err := clA.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	cb, _, err := clB.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	if l, r := mustMarshal(t, ca), mustMarshal(t, cb); l != r {
		t.Fatalf("replica answers differently:\nowner    %s\nfollower %s", l, r)
	}

	// The pull survives a reopen: the stream position was persisted.
	if n := srvB.StreamSegments()["cam"]; n != 3 {
		t.Fatalf("follower stream length %d, want 3", n)
	}
}

// TestDrainRetryAfter is the 503 regression: a draining server's refusals
// must carry the same Retry-After backoff hint a 429 does, and the client
// must surface it.
func TestDrainRetryAfter(t *testing.T) {
	srv, err := server.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Reconfigure(testConfig(t)); err != nil {
		t.Fatal(err)
	}
	as := api.New(srv, api.Limits{})
	hs := httptest.NewServer(as.Handler())
	defer hs.Close()
	// Shutdown of a handler-mounted server flips the drain flag and
	// returns; the handler keeps answering 503.
	ctx, cancelCtx := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelCtx()
	if err := as.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	cl := api.NewClient(hs.URL)
	_, _, err = cl.Query(context.Background(), api.QueryRequest{Stream: "cam"})
	if err == nil {
		t.Fatal("query during drain succeeded")
	}
	if !api.IsUnavailable(err) {
		t.Fatalf("drain refusal not classified unavailable: %v", err)
	}
	if api.IsRejected(err) {
		t.Fatalf("drain refusal misclassified as 429: %v", err)
	}
	hint, ok := api.RetryAfterHint(err)
	if !ok || hint < time.Second {
		t.Fatalf("drain refusal carries no usable Retry-After (hint=%v ok=%v): %v", hint, ok, err)
	}
}
