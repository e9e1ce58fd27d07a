package format

import (
	"fmt"
	"strconv"
)

// ConsumptionFormat CF⟨f⟩ characterises the raw frame sequences supplied to
// an operator: a fidelity option only, since consumers always receive
// decoded frames.
type ConsumptionFormat struct {
	Fidelity Fidelity
}

func (cf ConsumptionFormat) String() string { return "CF<" + cf.Fidelity.String() + ">" }

// StorageFormat SF⟨f,c⟩ characterises one stored version of an ingested
// stream: a fidelity option plus a coding option.
type StorageFormat struct {
	Fidelity Fidelity
	Coding   Coding
}

func (sf StorageFormat) String() string {
	return fmt.Sprintf("SF<%s %s>", sf.Fidelity, sf.Coding)
}

// Key returns a unique, '/'-free identifier for the fidelity, suitable for
// use as a path component in storage keys, e.g. "best-720p-1.1-100". Stored
// keys carry it, so its bytes never change (TestKeysMatchSprintf).
func (f Fidelity) Key() string { return string(f.appendKey(make([]byte, 0, 40))) }

func (f Fidelity) appendKey(b []byte) []byte {
	b = append(append(b, f.Quality.String()...), '-')
	b = append(strconv.AppendInt(b, int64(f.Res), 10), "p-"...)
	b = append(strconv.AppendInt(b, int64(f.Sampling.Num), 10), '.')
	b = append(strconv.AppendInt(b, int64(f.Sampling.Den), 10), '-')
	return strconv.AppendInt(b, int64(f.Crop), 10)
}

// Key returns a unique, '/'-free identifier for the storage format.
func (sf StorageFormat) Key() string {
	return string(sf.Coding.appendTo(append(sf.Fidelity.appendKey(make([]byte, 0, 56)), '_')))
}

// Satisfies reports whether the storage format can supply the consumption
// format: requirement R1, the stored fidelity is richer than or equal to the
// consumed one.
func (sf StorageFormat) Satisfies(cf ConsumptionFormat) bool {
	return sf.Fidelity.RicherEq(cf.Fidelity)
}
