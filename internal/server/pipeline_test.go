package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/frame"
	"repro/internal/ingest"
	"repro/internal/segment"
	"repro/internal/vidsim"
)

// commitLog records the segment indices the manifest commits for one
// stream, in commit order.
type commitLog struct {
	mu   sync.Mutex
	idxs []int
}

func logCommits(s *Server, stream string) (*commitLog, func()) {
	l := &commitLog{}
	cancel := s.SubscribeCommits(func(c segment.Commit) {
		if c.Stream != stream {
			return
		}
		l.mu.Lock()
		l.idxs = append(l.idxs, c.Idx)
		l.mu.Unlock()
	})
	return l, cancel
}

func (l *commitLog) get() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]int(nil), l.idxs...)
}

// TestConcurrentIngestCommitsInIndexOrder: two batch ingests into one
// stream interleave their reservations, yet the stream's commits reach a
// subscriber strictly in index order.
func TestConcurrentIngestCommitsInIndexOrder(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Reconfigure(pressureConfig(t, 3)); err != nil {
		t.Fatal(err)
	}
	log, cancel := logCommits(s, "cam")
	defer cancel()
	sc, _ := vidsim.DatasetByName("jackson")
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[g] = s.Ingest(sc, "cam", 3)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := log.get(); !slices.Equal(got, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("commits %v, want 0-5 strictly increasing", got)
	}
}

// TestPipelinedIngestMatchesSerial: a batch ingest with segments in flight
// together stores exactly the bytes a live stream stores one segment at a
// time, commits in index order, and reports the per-format bytes of four
// one-segment ingests.
func TestPipelinedIngestMatchesSerial(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := pressureConfig(t, 3) // a raw and an encoded format
	if err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	const n = 4
	sc, _ := vidsim.DatasetByName("jackson")
	log, cancel := logCommits(s, "a")
	defer cancel()
	piped, err := s.Ingest(sc, "a", n)
	if err != nil {
		t.Fatal(err)
	}
	if got := log.get(); !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("commits of a: %v, want [0 1 2 3]", got)
	}

	live, err := s.StartStream("b")
	if err != nil {
		t.Fatal(err)
	}
	src := vidsim.NewSource(sc)
	for i := 0; i < n; i++ {
		if err := live.Submit(src.Clip(i*segFrames, segFrames)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.StopStream("b"); err != nil {
		t.Fatal(err)
	}
	var serial ingest.Stats
	for i := 0; i < n; i++ {
		one, err := s.Ingest(sc, "c", 1)
		if err != nil {
			t.Fatal(err)
		}
		mergeSFStats(&serial, one.PerSF)
		serial.Segments += one.Segments
	}

	for _, sf := range cfg.StorageFormats() {
		for idx := 0; idx < n; idx++ {
			if sf.Coding.Raw {
				a, _, err := s.segs.GetRaw("a", sf, idx, nil)
				if err != nil {
					t.Fatal(err)
				}
				b, _, err := s.segs.GetRaw("b", sf, idx, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) {
					t.Fatalf("%v segment %d: %d vs %d raw frames", sf, idx, len(a), len(b))
				}
				for i := range a {
					if !frame.Equal(a[i], b[i]) {
						t.Fatalf("%v segment %d: raw frame %d differs", sf, idx, i)
					}
				}
				continue
			}
			a, err := s.segs.GetEncoded("a", sf, idx)
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.segs.GetEncoded("b", sf, idx)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Marshal(), b.Marshal()) {
				t.Fatalf("%v segment %d: encoded bytes differ", sf, idx)
			}
		}
	}
	if piped.Segments != n || serial.Segments != n || len(piped.PerSF) != len(serial.PerSF) {
		t.Fatalf("stats: pipelined %+v, serial %+v", piped, serial)
	}
	for i := range piped.PerSF {
		if piped.PerSF[i].SF != serial.PerSF[i].SF || piped.PerSF[i].Bytes != serial.PerSF[i].Bytes {
			t.Fatalf("format %d: pipelined %v %d B, serial %v %d B", i,
				piped.PerSF[i].SF, piped.PerSF[i].Bytes, serial.PerSF[i].SF, serial.PerSF[i].Bytes)
		}
	}
}

// TestIngestFailureSettlesInOrder: every write of segment 1's encoded
// replicas fails. The batch ingest returns the injected error, segment 1
// is a hole with no records, nothing after the failure's in-flight window
// is reserved, what was in flight commits in index order, and a reopen
// resumes at the persisted committed position.
func TestIngestFailureSettlesInOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pressureConfig(t, 3) // a raw and an encoded format
	if err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	log, cancel := logCommits(s, "cam")
	defer cancel()
	sc, _ := vidsim.DatasetByName("jackson")
	fault.Install(fault.New(1, []fault.Rule{{Op: fault.Write, Scope: []string{":seg/cam/", "/00000001"}, Mode: fault.Err, Rate: 1}}))
	st, err := s.Ingest(sc, "cam", 4)
	fault.Install(nil)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Ingest error %v, want one wrapping fault.ErrInjected", err)
	}

	// Segment 0 and 1 were in flight together; segment 2 was reserved only
	// if segment 0 settled before segment 1 failed, and then it commits
	// after the hole. Segment 3 is never reserved.
	reserved := s.SegmentsOf("cam")
	want := []int{0}
	if reserved == 3 {
		want = append(want, 2)
	} else if reserved != 2 {
		t.Fatalf("SegmentsOf = %d, want 2 or 3", reserved)
	}
	got := log.get()
	if !slices.Equal(got, want) {
		t.Fatalf("commits %v, want %v", got, want)
	}
	if st.Segments != len(want) {
		t.Fatalf("stats count %d segments, want %d", st.Segments, len(want))
	}
	for _, k := range s.kv.Keys("") {
		if r, ok := segment.ParseKey(k); ok && r.Stream == "cam" && r.Idx == 1 {
			t.Errorf("segment 1 left record %s", k)
		}
	}
	b, err := s.kv.Get(streamKeyPrefix + "cam")
	if err != nil {
		t.Fatal(err)
	}
	persisted := int(binary.BigEndian.Uint64(b))
	if persisted != want[len(want)-1]+1 {
		t.Fatalf("persisted position %d after commits %v", persisted, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.SegmentsOf("cam"); got != persisted {
		t.Fatalf("SegmentsOf after reopen = %d, want the persisted %d", got, persisted)
	}
}
