package store

import (
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/format"
	"repro/internal/retrieve"
	"repro/internal/segment"
)

// fakeSnap counts releases — the only behavior the lease table owns.
type fakeSnap struct {
	released int
}

func (f *fakeSnap) Segments(string) int       { return 0 }
func (f *fakeSnap) Refs(string, string) []int { return nil }
func (f *fakeSnap) Visible(string, format.StorageFormat, int) bool {
	return false
}
func (f *fakeSnap) GetEncoded(string, format.StorageFormat, int) (*codec.Encoded, error) {
	return nil, nil
}
func (f *fakeSnap) VisitRaw(string, format.StorageFormat, int, func(int) bool, segment.RawVisitor) (int64, error) {
	return 0, nil
}
func (f *fakeSnap) Release() error {
	f.released++
	return nil
}

// Any store.Snapshot must feed the query engine directly.
var _ retrieve.SegmentReader = Snapshot(nil)

func TestLeaseGrantGetRelease(t *testing.T) {
	l := NewLeases()
	l.ttl = time.Minute
	sn := &fakeSnap{}
	id := l.Grant(sn)
	if id == "" {
		t.Fatal("empty lease id")
	}
	got, ok := l.Get(id)
	if !ok || got != Snapshot(sn) {
		t.Fatalf("Get(%q) = %v, %v", id, got, ok)
	}
	if _, ok := l.Get("lease-999"); ok {
		t.Fatal("unknown lease answered")
	}
	if !l.Release(id) {
		t.Fatal("Release reported the live lease unknown")
	}
	if sn.released != 1 {
		t.Fatalf("snapshot released %d times, want 1", sn.released)
	}
	if l.Release(id) {
		t.Fatal("double Release reported live")
	}
	if _, ok := l.Get(id); ok {
		t.Fatal("released lease still answers")
	}
}

func TestLeaseTTLExpiry(t *testing.T) {
	l := NewLeases()
	l.ttl = time.Minute
	now := time.Unix(1000, 0)
	l.SetClock(func() time.Time { return now })
	a, b := &fakeSnap{}, &fakeSnap{}
	idA := l.Grant(a)
	idB := l.Grant(b)

	// Touching B inside the TTL renews it; A goes idle.
	now = now.Add(50 * time.Second)
	if _, ok := l.Get(idB); !ok {
		t.Fatal("lease B lost before its TTL")
	}
	now = now.Add(50 * time.Second) // A idle 100s > TTL, B idle 50s
	if _, ok := l.Get(idA); ok {
		t.Fatal("lease A survived past its TTL")
	}
	if a.released != 1 {
		t.Fatalf("expired lease released %d times, want 1", a.released)
	}
	if _, ok := l.Get(idB); !ok {
		t.Fatal("renewed lease B expired with A")
	}
	st := l.Stats()
	if st.Active != 1 || st.Granted != 2 || st.Expired != 1 {
		t.Fatalf("stats = %+v, want active 1 granted 2 expired 1", st)
	}
}

func TestLeaseReleaseAll(t *testing.T) {
	l := NewLeases()
	snaps := []*fakeSnap{{}, {}, {}}
	for _, sn := range snaps {
		l.Grant(sn)
	}
	l.ReleaseAll()
	for i, sn := range snaps {
		if sn.released != 1 {
			t.Fatalf("snapshot %d released %d times, want 1", i, sn.released)
		}
	}
	if st := l.Stats(); st.Active != 0 {
		t.Fatalf("active = %d after ReleaseAll", st.Active)
	}
}

// SetClock injects the time source (tests drive expiry deterministically).
func (l *Leases) SetClock(now func() time.Time) {
	l.mu.Lock()
	l.now = now
	l.mu.Unlock()
}
