// The NDJSON line codec. A query chunk line — QueryLine{Chunk} from
// /v1/query, which the router relays unread — is nearly all a warm query
// costs to deliver, and reflection is most of what encoding/json costs on
// it. appendLine writes a chunk line by hand, byte for byte what
// json.Encoder writes: the same key order, null for a nil slice, floats
// spelled 'f' or 'e' by magnitude, labels HTML-escaped, the same error on
// NaN and ±Inf.
// parseQueryLine reads back exactly that canonical form and hands every
// other line — a trailer, an error, or a chunk with whitespace, another key
// order, an escape or a number spelled otherwise — to json.Unmarshal. Every
// other line type, the subscription stream's included, goes through
// encoding/json both ways. TestAppendLineMatchesEncoder and FuzzQueryLine
// pin the two halves to encoding/json.

package api

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// plain marks the bytes a label carries as they are: printable ASCII that
// encoding/json neither escapes nor HTML-escapes. A label of plain bytes
// only is the canonical string the encoder writes and the parser reads;
// any other label is escaped by encoding/json and read back by it.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// chunkKey opens every chunk line appendLine writes.
const chunkKey = `{"chunk":`

// appendLine appends v as one NDJSON line, exactly as json.Encoder.Encode
// writes it; on error b is returned as it was. A []byte is a line already
// encoded — a node's line the router relays — and goes out as it is.
func appendLine(b []byte, v any) ([]byte, error) {
	switch l := v.(type) {
	case []byte:
		return append(append(b, l...), '\n'), nil
	case QueryLine:
		if l.Chunk != nil && l.Done == nil && l.Error == "" {
			e := lineEncoder{b: append(b, chunkKey...)}
			e.chunk(l.Chunk)
			return e.end(len(b))
		}
	}
	j, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(append(b, j...), '\n'), nil
}

// lineEncoder appends one chunk line; err is the first value encoding/json
// would have refused.
type lineEncoder struct {
	b   []byte
	err error
}

func (e *lineEncoder) raw(s string) { e.b = append(e.b, s...) }

func (e *lineEncoder) int(v int) { e.b = strconv.AppendInt(e.b, int64(v), 10) }

// float formats as encoding/json does: 'f', or 'e' below 1e-6 and from
// 1e21 on, with a one-digit negative exponent unpadded.
func (e *lineEncoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

func (e *lineEncoder) label(s string) {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(append(append(e.b, '"'), s...), '"')
}

func (e *lineEncoder) chunk(c *QueryChunk) {
	e.raw(`{"seg0":`)
	e.int(c.Seg0)
	e.raw(`,"seg1":`)
	e.int(c.Seg1)
	e.raw(`,"detections":`)
	if c.Detections == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i, d := range c.Detections {
			if i > 0 {
				e.raw(",")
			}
			e.raw(`{"pts":`)
			e.int(d.PTS)
			e.raw(`,"label":`)
			e.label(d.Label)
			e.raw(`,"x":`)
			e.float(d.X)
			e.raw(`,"y":`)
			e.float(d.Y)
			e.raw("}")
		}
		e.raw("]")
	}
	e.raw(`,"final_pts":`)
	if c.FinalPTS == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i, p := range c.FinalPTS {
			if i > 0 {
				e.raw(",")
			}
			e.int(p)
		}
		e.raw("]")
	}
	e.raw(`,"video_seconds":`)
	e.float(c.VideoSeconds)
	e.raw(`,"virtual_seconds":`)
	e.float(c.VirtualSeconds)
	e.raw(`,"speed":`)
	e.float(c.Speed)
	e.raw("}")
}

// end closes the line begun at start, or drops it on error.
func (e *lineEncoder) end(start int) ([]byte, error) {
	if e.err != nil {
		return e.b[:start], e.err
	}
	return append(e.b, "}\n"...), nil
}

// isChunkLine reports whether a query response line is a chunk line by how
// appendLine begins one, without reading the chunk.
func isChunkLine(line []byte) bool {
	return bytes.HasPrefix(line, []byte(chunkKey+"{"))
}

// parseQueryLine parses one line of a query response.
func parseQueryLine(line []byte) (QueryLine, error) {
	if c, ok := canonical(line); ok {
		return QueryLine{Chunk: c}, nil
	}
	var ql QueryLine
	err := json.Unmarshal(line, &ql)
	return ql, err
}

// canonical reads a chunk line exactly as appendLine writes it and reports
// whether the whole line was one.
func canonical(line []byte) (*QueryChunk, bool) {
	s := lineScanner{b: line, ok: true}
	s.lit(chunkKey)
	c := s.chunk()
	s.lit("}")
	return c, s.ok && s.i == len(line)
}

// chunk reads one canonical chunk object; a miss clears s.ok.
func (s *lineScanner) chunk() *QueryChunk {
	c := &QueryChunk{}
	s.lit(`{"seg0":`)
	c.Seg0 = s.int()
	s.lit(`,"seg1":`)
	c.Seg1 = s.int()
	s.lit(`,"detections":`)
	if s.ok && !s.opt("null") {
		s.lit("[")
		c.Detections = make([]Detection, 0, bytes.Count(s.rest(), []byte(`{"pts":`)))
		for n := 0; s.ok && !s.opt("]"); n++ {
			if n > 0 {
				s.lit(",")
			}
			var d Detection
			s.lit(`{"pts":`)
			d.PTS = s.int()
			s.lit(`,"label":`)
			d.Label = s.label()
			s.lit(`,"x":`)
			d.X = s.float()
			s.lit(`,"y":`)
			d.Y = s.float()
			s.lit("}")
			c.Detections = append(c.Detections, d)
		}
	}
	s.lit(`,"final_pts":`)
	if s.ok && !s.opt("null") {
		s.lit("[")
		rest := s.rest()
		if end := bytes.IndexByte(rest, ']'); end >= 0 {
			rest = rest[:end]
		}
		c.FinalPTS = make([]int, 0, bytes.Count(rest, []byte(","))+1)
		for n := 0; s.ok && !s.opt("]"); n++ {
			if n > 0 {
				s.lit(",")
			}
			c.FinalPTS = append(c.FinalPTS, s.int())
		}
	}
	s.lit(`,"video_seconds":`)
	c.VideoSeconds = s.float()
	s.lit(`,"virtual_seconds":`)
	c.VirtualSeconds = s.float()
	s.lit(`,"speed":`)
	c.Speed = s.float()
	s.lit("}")
	return c
}

// label reads one string of plain bytes.
func (s *lineScanner) label() string {
	if !s.ok || s.i == len(s.b) || s.b[s.i] != '"' {
		s.ok = false
		return ""
	}
	j := s.i + 1
	for j < len(s.b) && plain[s.b[j]] {
		j++
	}
	if j == len(s.b) || s.b[j] != '"' {
		s.ok = false
		return ""
	}
	l := string(s.b[s.i+1 : j])
	s.i = j + 1
	return l
}

// lineScanner walks one line; the first miss clears ok and every later
// call is a no-op, so a parse reads straight through and checks once.
type lineScanner struct {
	b  []byte
	i  int
	ok bool
}

func (s *lineScanner) rest() []byte { return s.b[s.i:] }

// opt consumes lit if it comes next.
func (s *lineScanner) opt(lit string) bool {
	if s.ok && len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// lit consumes lit, which must come next.
func (s *lineScanner) lit(lit string) {
	if !s.opt(lit) {
		s.ok = false
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// digits returns the end of the run of digits at i.
func (s *lineScanner) digits(i int) int {
	for i < len(s.b) && isDigit(s.b[i]) {
		i++
	}
	return i
}

// int reads an integer as the encoder writes one: no sign on zero, no
// leading zero, in range.
func (s *lineScanner) int() int {
	tok := s.number(false)
	v, err := strconv.ParseInt(string(tok), 10, 0)
	if err != nil || string(tok) == "-0" {
		s.ok = false
	}
	return int(v)
}

// float reads a number as the encoder spells one — a JSON number with a
// lower-case, signed exponent — which strconv reads to the value
// encoding/json would.
func (s *lineScanner) float() float64 {
	f, err := strconv.ParseFloat(string(s.number(true)), 64)
	if err != nil {
		s.ok = false
	}
	return f
}

// number consumes a number's token: an optional minus and digits without a
// leading zero, then, if real, a fraction and an exponent. A '.' or 'e' not
// followed by what the encoder writes after it is left for the next
// literal to miss on.
func (s *lineScanner) number(real bool) []byte {
	if !s.ok {
		return nil
	}
	i := s.i
	if i < len(s.b) && s.b[i] == '-' {
		i++
	}
	end := s.digits(i)
	if end == i || (s.b[i] == '0' && end > i+1) {
		s.ok = false
		return nil
	}
	if real && end+1 < len(s.b) && s.b[end] == '.' && isDigit(s.b[end+1]) {
		end = s.digits(end + 1)
	}
	if real && end+2 < len(s.b) && s.b[end] == 'e' && (s.b[end+1] == '-' || s.b[end+1] == '+') && isDigit(s.b[end+2]) {
		end = s.digits(end + 2)
	}
	tok := s.b[s.i:end]
	s.i = end
	return tok
}
