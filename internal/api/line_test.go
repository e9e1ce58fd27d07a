package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ops"
	"repro/internal/query"
	"repro/internal/segment"
	storepkg "repro/internal/store"
	"repro/internal/sub"
)

// labels every generated chunk draws from, beside random bytes: the plain
// ones take the codec's own path, the rest are escaped by encoding/json.
var genLabels = []string{
	"car", "person", "", "truck 7", "{\"pts\":", "a<b", "x>y", "a&b", `q"uote`, `back\slash`,
	"tab\t", "nul\x00", "\x1f", "\x7f", "café", "日本", "\u2028", "\u2029", "\xff\xfe", "bad\xc3",
}

var genInts = []int{0, 1, -1, 42, math.MaxInt, math.MinInt, 1234567890123456789, -999999999999999999, 1 << 53}

var genFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99999e-7, -1e-7, 1e20, 1e21, -1e21, 999999999999999999999.0, 1.5e300,
	5e-324, 2.2250738585072014e-308 / 3, math.MaxFloat64, 0.1, 1.0 / 3, -1.5, 123.456, 1e-10, 1e-100, 8.25,
}

func genInt(rng *rand.Rand) int {
	switch rng.Intn(3) {
	case 0:
		return genInts[rng.Intn(len(genInts))]
	case 1:
		return rng.Int() - rng.Int()
	}
	return rng.Intn(2000) - 100
}

func genFloat(rng *rand.Rand) float64 {
	switch r := rng.Intn(400); {
	case r == 0:
		return math.NaN()
	case r == 1:
		return math.Inf(1 - 2*rng.Intn(2))
	case r < 150:
		return genFloats[rng.Intn(len(genFloats))]
	case r < 250:
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
	return float64(rng.Intn(1e6)) / float64(1+rng.Intn(1000))
}

func genLabel(rng *rand.Rand) string {
	if rng.Intn(3) > 0 {
		return genLabels[rng.Intn(len(genLabels))]
	}
	b := make([]byte, rng.Intn(12))
	for i := range b {
		if rng.Intn(2) == 0 {
			b[i] = byte(rng.Intn(256))
		} else {
			b[i] = byte('a' + rng.Intn(26))
		}
	}
	return string(b)
}

func genChunk(rng *rand.Rand) *QueryChunk {
	c := &QueryChunk{Seg0: genInt(rng), Seg1: genInt(rng),
		VideoSeconds: genFloat(rng), VirtualSeconds: genFloat(rng), Speed: genFloat(rng)}
	if n := rng.Intn(10) - 1; n >= 0 {
		c.Detections = []Detection{}
		for range n {
			c.Detections = append(c.Detections, Detection{PTS: genInt(rng), Label: genLabel(rng), X: genFloat(rng), Y: genFloat(rng)})
		}
	}
	if n := rng.Intn(10) - 1; n >= 0 {
		c.FinalPTS = []int{}
		for range n {
			c.FinalPTS = append(c.FinalPTS, genInt(rng))
		}
	}
	return c
}

// genLine is a query or subscription line; most are chunk lines, the rest
// the lines the codec leaves to encoding/json.
func genLine(rng *rand.Rand) any {
	c := genChunk(rng)
	var seq, dropped int64
	if rng.Intn(2) == 0 {
		seq = int64(genInt(rng))
	}
	if rng.Intn(2) == 0 {
		dropped = int64(genInt(rng))
	}
	switch rng.Intn(9) {
	case 0:
		return QueryLine{Done: &QuerySummary{Chunks: genInt(rng), Segments: genInt(rng), WallMs: genFloat(rng)}}
	case 1:
		return QueryLine{Error: genLabel(rng)}
	case 2:
		return QueryLine{Chunk: c, Done: &QuerySummary{}}
	case 3:
		return SubLine{Ack: &SubAck{ID: genLabel(rng), Stream: "cam"}}
	case 4:
		return SubLine{Seq: seq, Alert: &sub.Alert{SubID: "s1", Label: genLabel(rng), Count: genInt(rng)}}
	case 5, 6:
		return SubLine{Seq: seq, Dropped: dropped, Chunk: c}
	}
	return QueryLine{Chunk: c}
}

// parseLine reads one line back the way the client reads v's stream, and
// reports whether the codec's own path read it.
func parseLine(v any, line []byte) (got any, fast bool, err error) {
	if _, ok := v.(SubLine); ok {
		got, err = unmarshalLine(v, line)
		return got, false, err
	}
	_, fast = canonical(line)
	got, err = parseQueryLine(line)
	return got, fast, err
}

// unmarshalLine is the reference reader: json.Unmarshal into v's type.
func unmarshalLine(v any, line []byte) (any, error) {
	if _, ok := v.(SubLine); ok {
		var sl SubLine
		err := json.Unmarshal(line, &sl)
		return sl, err
	}
	var ql QueryLine
	err := json.Unmarshal(line, &ql)
	return ql, err
}

// plainChunkLine reports whether v is a query chunk line with every label
// plain — the lines the parser must read on its own path.
func plainChunkLine(v any) bool {
	l, ok := v.(QueryLine)
	if !ok || l.Chunk == nil || l.Done != nil || l.Error != "" {
		return false
	}
	c := l.Chunk
	for _, d := range c.Detections {
		for i := 0; i < len(d.Label); i++ {
			if !plain[d.Label[i]] {
				return false
			}
		}
	}
	return true
}

// TestAppendLineMatchesEncoder: for seeded random lines, appendLine writes
// exactly the bytes json.NewEncoder(…).Encode writes — or fails with its
// error and leaves the buffer as it was — and the parser reads every line
// back to json.Unmarshal's value, on its own path exactly for the query
// chunk lines whose labels are plain.
func TestAppendLineMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const prefix = "earlier line\n"
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		v := genLine(rng)
		var want bytes.Buffer
		werr := json.NewEncoder(&want).Encode(v)
		got, gerr := appendLine([]byte(prefix), v)
		if werr != nil {
			counts["error"]++
			if gerr == nil || gerr.Error() != werr.Error() || string(got) != prefix {
				t.Fatalf("line %d: %#v\nencoding/json: %v\nappendLine: %v, %q", i, v, werr, gerr, got)
			}
			continue
		}
		if gerr != nil || string(got) != prefix+want.String() {
			t.Fatalf("line %d: %#v\nencoding/json: %s\nappendLine:    %s (%v)", i, v, want.Bytes(), got[len(prefix):], gerr)
		}
		line := bytes.TrimSuffix(got[len(prefix):], []byte("\n"))
		parsed, fast, perr := parseLine(v, line)
		ref, rerr := unmarshalLine(v, line)
		if perr != nil || rerr != nil || !reflect.DeepEqual(parsed, ref) || (fast && !reflect.DeepEqual(parsed, v)) {
			t.Fatalf("line %d: %s\nparsed %#v (%v)\nwant   %#v (%v)", i, line, parsed, perr, ref, rerr)
		}
		if want := plainChunkLine(v); fast != want {
			t.Fatalf("line %d: codec's own path = %v, want %v: %s", i, fast, want, line)
		}
		if fast {
			counts["fast"]++
		} else {
			counts["fallback"]++
		}
	}
	// The generator must reach all three outcomes often enough to mean it.
	for _, k := range []string{"error", "fast", "fallback"} {
		if counts[k] < 500 {
			t.Fatalf("only %d %s lines of 20000: %v", counts[k], k, counts)
		}
	}
}

// FuzzQueryLine: for any bytes, the parser agrees with json.Unmarshal — the
// same error or none, and the same value — read as a query line and as a
// subscription line.
func FuzzQueryLine(f *testing.F) {
	chunk := `{"seg0":0,"seg1":1,"detections":[{"pts":3,"label":"car","x":0.5,"y":1e-7},{"pts":4,"label":"person","x":-0,"y":1e+21}],"final_pts":[3,4],"video_seconds":8,"virtual_seconds":0.25,"speed":32}`
	for _, s := range []string{
		`{"chunk":` + chunk + `}`,
		`{"seq":7,"dropped":2,"chunk":` + chunk + `}`,
		`{"seq":7,"chunk":` + chunk + `}`,
		`{"dropped":1,"chunk":` + chunk + `}`,
		`{"chunk":{"seg0":0,"seg1":1,"detections":null,"final_pts":null,"video_seconds":0,"virtual_seconds":0,"speed":0}}`,
		`{"chunk":{"seg0":0,"seg1":1,"detections":[],"final_pts":[],"video_seconds":0,"virtual_seconds":0,"speed":0}}`,
		// Whitespace, key order, escapes, other number spellings.
		`{"chunk": ` + chunk + `}`,
		` {"chunk":` + chunk + `}`,
		`{"chunk":` + chunk + "}\r",
		`{"chunk":{"seg1":1,"seg0":0,"detections":null,"final_pts":null,"video_seconds":0,"virtual_seconds":0,"speed":0}}`,
		`{"chunk":{"seg0":0,"seg1":1,"detections":[{"pts":1,"label":"c\u0061r","x":0,"y":0}],"final_pts":null,"video_seconds":0,"virtual_seconds":0,"speed":0}}`,
		`{"chunk":{"seg0":0,"seg1":1,"detections":[{"pts":1,"label":"\u003c","x":0,"y":0}],"final_pts":null,"video_seconds":0,"virtual_seconds":0,"speed":0}}`,
		`{"chunk":{"seg0":1.,"seg1":1,"detections":null,"final_pts":null,"video_seconds":0,"virtual_seconds":0,"speed":0}}`,
		`{"chunk":{"seg0":01,"seg1":1,"detections":null,"final_pts":null,"video_seconds":0,"virtual_seconds":0,"speed":0}}`,
		`{"chunk":{"seg0":1e3,"seg1":1,"detections":null,"final_pts":null,"video_seconds":1e3,"virtual_seconds":0,"speed":0}}`,
		`{"chunk":{"seg0":-0,"seg1":1,"detections":null,"final_pts":[-0],"video_seconds":-0,"virtual_seconds":0,"speed":0}}`,
		`{"chunk":{"seg0":0,"seg1":99999999999999999999,"detections":null,"final_pts":null,"video_seconds":1E+3,"virtual_seconds":.5,"speed":1e400}}`,
		`{"seq":0,"chunk":{"seg0":0,"seg1":1,"detections":null,"final_pts":null,"video_seconds":0,"virtual_seconds":0,"speed":0}}`,
		`{"chunk":null}`,
		// The lines encoding/json always reads.
		`{"done":{"chunks":1,"segments":1,"wall_ms":0.5}}`,
		`{"error":"boom"}`,
		`{"ack":{"id":"s1","stream":"cam"}}`,
		`{"seq":3,"alert":{"sub_id":"s1","rule":0,"count":2,"window_segments":1,"stream":"cam","seg0":0,"seg1":1,"seq":3}}`,
		``, `{`, `null`, `[]`, `{"chunk":{}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		for _, v := range []any{QueryLine{}, SubLine{}} {
			got, _, err := parseLine(v, line)
			want, werr := unmarshalLine(v, line)
			if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%T of %q:\nparser         %#v, %v\njson.Unmarshal %#v, %v", v, line, got, err, want, werr)
			}
		}
	})
}

// nanStore is a store.Store whose every evaluation finds one detection at a
// NaN coordinate: a chunk no JSON encoder can write.
type nanStore struct {
	storepkg.Store
	mu     sync.Mutex
	commit func(segment.Commit)
}

type nanSnap struct{ storepkg.Snapshot }

func (nanSnap) Release() error { return nil }

func (*nanStore) Pin() (storepkg.Snapshot, error) { return nanSnap{}, nil }

func (*nanStore) Evaluate(context.Context, storepkg.Snapshot, storepkg.Request) (storepkg.Result, error) {
	return storepkg.Result{Results: []query.Result{{Detections: []ops.Detection{{Label: "car", X: math.NaN()}}}}}, nil
}

func (st *nanStore) SubscribeCommits(fn func(segment.Commit)) func() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.commit = fn
	return func() {}
}

func (st *nanStore) commitSeg(seq int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.commit(segment.Commit{Stream: "cam", Seq: seq})
}

// TestSubscribeUnencodableChunkEnds: a pushed chunk that cannot be encoded
// ends the subscription. The handler returns, so the body ends right after
// the in-band error line, the endpoint counts a server error, and
// Subscribe returns the *StreamError at once instead of waiting on a body
// that never ends.
func TestSubscribeUnencodableChunkEnds(t *testing.T) {
	st := &nanStore{}
	s := &Server{Shell: NewShell("server"), hub: sub.NewHub(st, sub.HubOptions{})}
	defer s.hub.Close()
	s.Route("subscribe", "POST /v1/subscribe", s.handleSubscribe)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	_, err := NewClient(ts.URL).Subscribe(ctx, SubscribeRequest{Stream: "cam"}, func(ev SubEvent) error {
		if ev.Ack != nil {
			st.commitSeg(1)
		}
		return nil
	})
	var se *StreamError
	if !errors.As(err, &se) || se.Truncated || !strings.Contains(se.Msg, "NaN") || ctx.Err() != nil {
		t.Fatalf("Subscribe: err = %v (ctx %v), want a prompt in-band *StreamError naming the NaN", err, ctx.Err())
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/subscribe", strings.NewReader(`{"stream":"cam"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if ack, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(ack, `{"ack":`) {
		t.Fatalf("first line %q (%v), want the ack", ack, err)
	}
	st.commitSeg(2)
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("reading to the end of the body: %v", err)
	}
	if want := `{"error":"api: encoding response line: json: unsupported value: NaN"}` + "\n"; string(rest) != want {
		t.Fatalf("body after the ack:\n%s\nwant:\n%s", rest, want)
	}
	// Subscribe returned on the error line, before its handler's deferred
	// accounting ran; Close waits for both handlers to return.
	ts.Close()
	if m := s.Metrics()["subscribe"]; m.Requests != 2 || m.Errors != 2 {
		t.Fatalf("subscribe counters %+v, want 2 requests, 2 errors", m)
	}
	if active := s.hub.Stats().Active; active != 0 {
		t.Fatalf("%d subscriptions still live, want 0", active)
	}
}

var benchLine = func() []byte {
	rng := rand.New(rand.NewSource(2))
	c := QueryChunk{Seg0: 3, Seg1: 4, FinalPTS: []int{}}
	for i := 0; i < 240; i++ {
		c.Detections = append(c.Detections, Detection{PTS: 720 + i, Label: []string{"car", "person", "truck"}[i%3],
			X: float64(rng.Intn(1280)) + rng.Float64(), Y: float64(rng.Intn(720)) / 7})
		c.FinalPTS = append(c.FinalPTS, 720+i)
	}
	c.VideoSeconds, c.VirtualSeconds, c.Speed = 8, 0.0123, 8/0.0123
	b, _ := appendLine(nil, QueryLine{Chunk: &c})
	return bytes.TrimSuffix(b, []byte("\n")) // as the client's scanner hands it over
}()

func BenchmarkChunkLine(b *testing.B) {
	var ql QueryLine
	if err := json.Unmarshal(benchLine, &ql); err != nil {
		b.Fatal(err)
	}
	b.Run("encode/json", func(b *testing.B) {
		enc := json.NewEncoder(&bytes.Buffer{})
		for b.Loop() {
			_ = enc.Encode(ql)
		}
	})
	b.Run("encode/codec", func(b *testing.B) {
		var buf []byte
		for b.Loop() {
			buf, _ = appendLine(buf[:0], ql)
		}
	})
	b.Run("decode/json", func(b *testing.B) {
		for b.Loop() {
			var v QueryLine
			_ = json.Unmarshal(benchLine, &v)
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		for b.Loop() {
			_, _ = parseQueryLine(benchLine)
		}
	})
}
