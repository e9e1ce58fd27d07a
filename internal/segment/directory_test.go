package segment

import (
	"bytes"
	"errors"
	"strconv"
	"testing"

	"repro/internal/format"
	"repro/internal/frame"
)

// countingKV counts the reads a segment store makes of its KV.
type countingKV struct {
	KV
	keys, gets int
}

func (c *countingKV) Keys(prefix string) []string {
	c.keys++
	return c.KV.Keys(prefix)
}

func (c *countingKV) Get(key string) ([]byte, error) {
	c.gets++
	return c.KV.Get(key)
}

func (c *countingKV) GetInto(key string, buf *[]byte) ([]byte, error) {
	c.gets++
	return c.KV.GetInto(key, buf)
}

// listRaw is the reader the anchor's directory replaced, kept as the
// reference: it lists the replica's frame keys and reads every one whose PTS
// keep admits, in key order.
func listRaw(t *testing.T, s *Store, r Ref, keep func(pts int) bool) []*frame.Frame {
	t.Helper()
	prefix := rawFramePrefixOf(r.Stream, r.SFKey, r.Idx)
	var out []*frame.Frame
	for _, key := range s.kv.Keys(prefix) {
		pts, err := strconv.Atoi(key[len(prefix):])
		if err != nil {
			t.Fatalf("bad raw frame key %q", key)
		}
		if keep != nil && !keep(pts) {
			continue
		}
		b, err := s.kv.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		f, err := unmarshalFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, &f)
	}
	return out
}

// sampled returns the frames a format at sampling s stores of frames.
func sampled(s format.Sampling, frames []*frame.Frame) []*frame.Frame {
	var kept []*frame.Frame
	for _, f := range frames {
		if s.Keep(f.PTS) {
			kept = append(kept, f)
		}
	}
	return kept
}

// TestVisitRawReadsOnlyTheDirectory: for every temporal sampling, with keep
// nil and a 1/6 filter, a raw read visits the frames a key listing of the same
// replica yields, PTS and bytes, and costs no Keys call and one Get for the
// anchor plus one per kept frame — on a store of one segment as of 64.
func TestVisitRawReadsOnlyTheDirectory(t *testing.T) {
	const n = 60 // two frames at the sparsest sampling, 1/30
	filters := map[string]func(int) bool{"all": nil, "1/6": func(pts int) bool { return pts%6 == 0 }}
	all := clip(t, 0, 64*n)
	for _, segments := range []int{1, 64} {
		for _, sm := range format.Samplings {
			s := newStore(t)
			kv := &countingKV{KV: s.kv}
			s.kv = kv
			sf := rawSF
			sf.Fidelity.Sampling = sm
			for idx := 0; idx < segments; idx++ {
				if err := s.PutRaw("cam", sf, idx, sampled(sm, all[idx*n:(idx+1)*n])); err != nil {
					t.Fatal(err)
				}
			}
			ref := RefOf("cam", sf, segments/2)
			for name, keep := range filters {
				want := listRaw(t, s, ref, keep)
				kv.keys, kv.gets = 0, 0
				var got []*frame.Frame
				if _, err := s.VisitRawRef(ref, keep, func(m int, f *frame.Frame) bool {
					if m != len(want) {
						t.Fatalf("visitor told of %d frames, want %d", m, len(want))
					}
					got = append(got, f.Clone())
					return false
				}); err != nil {
					t.Fatal(err)
				}
				if kv.keys != 0 || kv.gets != 1+len(want) {
					t.Fatalf("%d segments, sampling %v, keep %s: %d Keys and %d reads, want 0 and %d",
						segments, sm, name, kv.keys, kv.gets, 1+len(want))
				}
				if len(got) != len(want) {
					t.Fatalf("sampling %v, keep %s: visited %d frames, listing yields %d", sm, name, len(got), len(want))
				}
				for i := range got {
					if got[i].PTS != want[i].PTS || !frame.Equal(got[i], want[i]) {
						t.Fatalf("sampling %v, keep %s: frame %d (pts %d) differs from the listing's", sm, name, i, want[i].PTS)
					}
				}
			}
		}
	}
}

// TestVisitRawDirectoryEdges: a frame the directory names but the store lacks
// is skipped, and an anchor of the bare 16-byte header older writers left is
// ErrCorrupt.
func TestVisitRawDirectoryEdges(t *testing.T) {
	s := newStore(t)
	frames := clip(t, 0, 6)
	if err := s.PutRaw("cam", rawSF, 0, frames); err != nil {
		t.Fatal(err)
	}
	ref := RefOf("cam", rawSF, 0)
	if err := s.kv.Delete(rawFrameKey(rawFramePrefixOf("cam", ref.SFKey, 0), frames[2].PTS)); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.GetRaw("cam", rawSF, 0, nil)
	if err != nil || len(got) != len(frames)-1 || got[2].PTS != frames[3].PTS {
		t.Fatalf("read with a missing frame: %d frames, %v", len(got), err)
	}
	anchor := rawMetaKeyOf("cam", ref.SFKey, 0)
	mb, err := s.kv.Get(anchor)
	if err != nil {
		t.Fatal(err)
	}
	if len(mb) != 16+4*len(frames) {
		t.Fatalf("anchor of %d frames is %d bytes", len(frames), len(mb))
	}
	if err := s.kv.Put(anchor, mb[:16]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetRaw("cam", rawSF, 0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read under a header-only anchor: %v, want ErrCorrupt", err)
	}
}

// FuzzRawMeta: any bytes either fail unmarshalRawMeta or re-marshal to
// themselves, and what is accepted holds no more PTS than the input has room
// for.
func FuzzRawMeta(f *testing.F) {
	f.Add(rawMeta{w: 40, h: 22, firstPTS: 6, pts: []int{6, 12, 18}}.marshal())
	f.Add(rawMeta{w: 40, h: 22, firstPTS: 0, pts: []int{0}}.marshal()[:16])
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := unmarshalRawMeta(b)
		if err != nil {
			return
		}
		if 16+4*len(m.pts) != len(b) {
			t.Fatalf("%d bytes gave %d PTS", len(b), len(m.pts))
		}
		if !bytes.Equal(m.marshal(), b) {
			t.Fatalf("%x re-marshals to %x", b, m.marshal())
		}
	})
}
