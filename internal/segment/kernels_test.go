package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/frame"
)

// refUnmarshalFrame is unmarshalFrame as it stood while it copied: a fresh
// frame.New and three plane copies per record. Kept verbatim as the oracle
// for the aliasing version.
func refUnmarshalFrame(b []byte) (*frame.Frame, error) {
	if len(b) < 8 {
		return nil, errors.New("segment: truncated raw frame")
	}
	w := int(binary.BigEndian.Uint16(b[0:]))
	h := int(binary.BigEndian.Uint16(b[2:]))
	pts := int(binary.BigEndian.Uint32(b[4:]))
	f := frame.New(w, h)
	f.PTS = pts
	want := 8 + f.Bytes()
	if len(b) != want {
		return nil, fmt.Errorf("segment: raw frame %d bytes, want %d", len(b), want)
	}
	p := b[8:]
	n := copy(f.Y, p)
	n += copy(f.Cb, p[n:])
	copy(f.Cr, p[n:])
	return f, nil
}

// refMarshalRawSegment is MarshalRawSegment as it stood while it built each
// record separately and then appended it, kept verbatim as the oracle.
func refMarshalRawSegment(frames []*frame.Frame) []byte {
	size := 4
	for _, f := range frames {
		size += 4 + 8 + f.Bytes()
	}
	out := make([]byte, 0, size)
	out = binary.BigEndian.AppendUint32(out, uint32(len(frames)))
	for _, f := range frames {
		rec := make([]byte, 0, 8+f.Bytes())
		var hdr [8]byte
		binary.BigEndian.PutUint16(hdr[0:], uint16(f.W))
		binary.BigEndian.PutUint16(hdr[2:], uint16(f.H))
		binary.BigEndian.PutUint32(hdr[4:], uint32(f.PTS))
		rec = append(rec, hdr[:]...)
		rec = append(rec, f.Y...)
		rec = append(rec, f.Cb...)
		rec = append(rec, f.Cr...)
		out = binary.BigEndian.AppendUint32(out, uint32(len(rec)))
		out = append(out, rec...)
	}
	return out
}

// record builds a stored record with the given header dimensions and body
// length, the body filled from seed.
func record(w, h, pts, body int, seed int64) []byte {
	b := make([]byte, 8+body)
	binary.BigEndian.PutUint16(b[0:], uint16(w))
	binary.BigEndian.PutUint16(b[2:], uint16(h))
	binary.BigEndian.PutUint32(b[4:], uint32(pts))
	rand.New(rand.NewSource(seed)).Read(b[8:])
	return b
}

// checkUnmarshalFrame holds unmarshalFrame to the oracle on b: the same
// error or the same frame, planes that alias b and cannot grow into each
// other, and no panic either way.
func checkUnmarshalFrame(t *testing.T, b []byte) {
	t.Helper()
	got, err := unmarshalFrame(b)
	const big = 1 << 22
	if len(b) >= 8 && len(b) < big && int(binary.BigEndian.Uint16(b[0:]))*int(binary.BigEndian.Uint16(b[2:])) > big {
		// The oracle allocates the header's frame before it looks at the
		// length — gigabytes for a hostile header. No record this short can
		// hold such a frame, so the answer is known without asking it.
		if err == nil {
			t.Fatalf("record of %d bytes accepted with a larger frame's header", len(b))
		}
		return
	}
	want, wantErr := refUnmarshalFrame(bytes.Clone(b))
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("record of %d bytes: error %v, reference %v", len(b), err, wantErr)
	}
	if err != nil {
		return
	}
	if got.W != want.W || got.H != want.H || got.PTS != want.PTS || !frame.Equal(&got, want) ||
		len(got.Cb) != len(want.Cb) || len(got.Cr) != len(want.Cr) {
		t.Fatalf("record of %d bytes: %v differs from the reference %v", len(b), &got, want)
	}
	if &got.Y[0] != &b[8] || &got.Cr[len(got.Cr)-1] != &b[len(b)-1] {
		t.Fatalf("record of %d bytes: planes do not alias the record", len(b))
	}
	// An append to one plane must reallocate, not run into the next.
	_ = append(got.Y, 0xA5)
	_ = append(got.Cb, 0xA5)
	_ = append(got.Cr, 0xA5)
	if !frame.Equal(&got, want) {
		t.Fatalf("record of %d bytes: append on one plane reached another", len(b))
	}
}

func TestUnmarshalFrameMatchesReference(t *testing.T) {
	span := func(w, h int) int { return frame.New(w, h).Bytes() }
	cases := []struct {
		name       string
		w, h, body int
	}{
		{"2x2", 2, 2, span(2, 2)},
		{"120x68", 120, 68, span(120, 68)},
		{"160x90", 160, 90, span(160, 90)},
		{"one byte long", 120, 68, span(120, 68) + 1},
		{"one byte short", 120, 68, span(120, 68) - 1},
		{"header only", 120, 68, 0},
		{"odd width, rounded-up body", 5, 4, span(5, 4)},
		{"odd width, unrounded body", 5, 4, 5*4 + 2*2*2},
		{"odd height, rounded-up body", 4, 5, span(4, 5)},
		{"zero dims, 2x2 body", 0, 0, span(0, 0)},
		{"zero dims, empty body", 0, 0, 0},
		{"1x1, 2x2 body", 1, 1, span(1, 1)},
		{"largest header", 65535, 65535, 64},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkUnmarshalFrame(t, record(c.w, c.h, 1000+i, c.body, int64(i)))
		})
	}
	for n := 0; n < 8; n++ { // truncated inside the header
		checkUnmarshalFrame(t, record(2, 2, 0, 6, 1)[:n])
	}
}

func FuzzUnmarshalFrame(f *testing.F) {
	f.Add(record(2, 2, 7, 6, 1))
	f.Add(record(6, 4, 1<<31, 36, 2))
	f.Add(record(3, 1, 0, 12, 3))
	f.Add(record(2, 2, 7, 5, 4))
	f.Add([]byte{0, 2, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkUnmarshalFrame(t, b)
	})
}

// TestMarshalRawSegmentWireBytes pins the peer-replication framing to the
// bytes the two-copy construction produced, and round-trips them.
func TestMarshalRawSegmentWireBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 7} {
		frames := make([]*frame.Frame, n)
		for i := range frames {
			f := frame.New(2+2*rng.Intn(40), 2+2*rng.Intn(30))
			f.PTS = rng.Intn(1 << 20)
			rng.Read(f.Y)
			rng.Read(f.Cb)
			rng.Read(f.Cr)
			frames[i] = f
		}
		wire := MarshalRawSegment(frames)
		if !bytes.Equal(wire, refMarshalRawSegment(frames)) {
			t.Fatalf("%d frames: wire bytes differ from the reference construction", n)
		}
		back, err := UnmarshalRawSegment(wire)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != n {
			t.Fatalf("round trip returned %d frames, want %d", len(back), n)
		}
		for i := range back {
			if back[i].PTS != frames[i].PTS || !frame.Equal(back[i], frames[i]) {
				t.Fatalf("frame %d differs after the wire round trip", i)
			}
		}
	}
}

// recordingKV remembers every value Get handed out, so a test can tell
// whether delivered planes are those buffers or copies of them.
type recordingKV struct {
	KV
	served [][]byte
}

func (s *recordingKV) Get(key string) ([]byte, error) {
	v, err := s.KV.Get(key)
	if err == nil {
		s.served = append(s.served, v)
	}
	return v, err
}

// TestGetRawAliasesOwnedRecords checks the ownership rule written on KV
// from the segment side: raw frames alias the buffers Get returned (one
// copy from log to consumer), and because the store keeps none of them,
// scribbling over one delivery leaves the next one intact.
func TestGetRawAliasesOwnedRecords(t *testing.T) {
	s := newStore(t)
	kv := &recordingKV{KV: s.kv}
	s.kv = kv
	frames := clip(t, 0, 12)
	if err := s.PutRaw("cam", rawSF, 0, frames); err != nil {
		t.Fatal(err)
	}
	kv.served = nil
	first, _, err := s.GetRaw("cam", rawSF, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	records := kv.served[1:] // [0] is the metadata anchor
	if len(first) != len(frames) || len(records) != len(frames) {
		t.Fatalf("read %d frames from %d records, want %d", len(first), len(records), len(frames))
	}
	for i, f := range first {
		if &f.Y[0] != &records[i][8] {
			t.Fatalf("frame %d was copied out of its record", i)
		}
		for _, p := range [][]byte{f.Y, f.Cb, f.Cr} {
			for j := range p {
				p[j] ^= 0xFF
			}
		}
	}
	again, _, err := s.GetRaw("cam", rawSF, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i].PTS != frames[i].PTS || !frame.Equal(again[i], frames[i]) {
			t.Fatalf("frame %d changed after an earlier delivery was overwritten", i)
		}
	}
	s.kv = kv.KV // VerifyAll wants the bare store
	if refs, meta, err := s.VerifyAll(); err != nil || len(refs)+len(meta) != 0 {
		t.Fatalf("store damaged by a scribble on delivered frames: %v %v %v", refs, meta, err)
	}
}

// poisonKV fills a buffer the store lends back to it with 0xFF before it
// reads into it — as soon as the next read begins — and once more, on
// request, after the last: whatever a visitor delivered out of a buffer it
// gave back is then visibly wrong.
type poisonKV struct {
	KV
	lent []byte
}

func (p *poisonKV) poison() {
	for i := range p.lent {
		p.lent[i] = 0xFF
	}
}

func (p *poisonKV) GetInto(key string, buf *[]byte) ([]byte, error) {
	p.lent = (*buf)[:cap(*buf)]
	p.poison()
	v, err := p.KV.GetInto(key, buf)
	p.lent = (*buf)[:cap(*buf)]
	return v, err
}

// TestVisitRawLendsOneBuffer reads a segment through visitors that keep
// every record (GetRaw), none (a converting visitor: it scales the lent frame
// into one of its own), and every third, over a store that poisons each
// buffer it gets back. Everything delivered must equal what was stored:
// nothing a keeping visitor holds is lent again, and nothing a converting
// one delivered lives in the lent buffer. Only a converting read reuses
// buffers, and it allocates two of them.
func TestVisitRawLendsOneBuffer(t *testing.T) {
	s := newStore(t)
	kv := &poisonKV{KV: s.kv}
	s.kv = kv
	frames := clip(t, 0, 24)
	if err := s.PutRaw("cam", rawSF, 0, frames); err != nil {
		t.Fatal(err)
	}
	keep := func(pts int) bool { return pts%2 == 0 }
	var want []*frame.Frame
	for _, f := range frames {
		if keep(f.PTS) {
			want = append(want, f)
		}
	}
	check := func(name string, got, want []*frame.Frame) {
		t.Helper()
		kv.poison()
		if len(got) != len(want) {
			t.Fatalf("%s: %d frames, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i].PTS != want[i].PTS || !frame.Equal(got[i], want[i]) {
				t.Fatalf("%s: frame %d (pts %d) differs from what was stored", name, i, want[i].PTS)
			}
		}
	}

	got, read, err := s.GetRaw("cam", rawSF, 0, keep)
	if err != nil {
		t.Fatal(err)
	}
	check("keeping", got, want)
	if kv.lent != nil {
		t.Fatal("a read whose visitor keeps every record lent a buffer")
	}

	var small, wantSmall []*frame.Frame
	for _, f := range want {
		wantSmall = append(wantSmall, f.Downscale(20, 10))
	}
	buffers := map[*byte]bool{}
	readSmall, err := s.VisitRaw("cam", rawSF, 0, keep, func(n int, f *frame.Frame) bool {
		if n != len(want) {
			t.Fatalf("visitor told of %d frames, want %d", n, len(want))
		}
		buffers[&f.Y[0]] = true
		small = append(small, f.Downscale(20, 10))
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	check("converting", small, wantSmall)
	if readSmall != read {
		t.Fatalf("converting read %d bytes, keeping %d", readSmall, read)
	}
	if len(buffers) != 2 {
		t.Fatalf("a converting read of %d frames used %d buffers, want 2 (the first value, then one record)", len(want), len(buffers))
	}

	var mixed []*frame.Frame
	if _, err := s.VisitRaw("cam", rawSF, 0, keep, func(n int, f *frame.Frame) bool {
		if len(mixed)%3 == 0 {
			mixed = append(mixed, f)
			return true
		}
		mixed = append(mixed, f.Clone())
		return false
	}); err != nil {
		t.Fatal(err)
	}
	check("every third kept", mixed, want)
}
