// Package repair implements VStore's self-healing layer: a scrubber that
// walks the segment store verifying record checksums, and re-derivation of
// damaged or lost replicas from surviving ancestors on the erosion
// fallback tree (the same tree §4.4's degraded reads walk — repair walks
// it upward instead).
//
// A replica of storage format i is rebuilt by decoding the nearest richer
// surviving ancestor (the golden copy as last resort) and re-running the
// ingest transcode for format i. When the ancestor's decoded frames are
// exactly the frames ingest transformed — a lossless (raw) golden replica
// at full fidelity — the rebuilt replica is byte-identical to a fresh
// ingest; a lossy or cropped ancestor yields a best-effort reconstruction
// at the target format. The rebuilt records are committed with the same
// write-then-sync discipline demotion uses.
package repair

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/segment"
	"repro/internal/tier"
	"repro/internal/vidsim"
)

// ErrNoAncestor is returned when a damaged replica has no surviving
// richer ancestor to rebuild from — the golden copy itself is damaged or
// gone, so only re-ingest from the source can recover the data.
var ErrNoAncestor = errors.New("repair: no surviving ancestor")

// Repairer rebuilds damaged segment replicas.
type Repairer struct {
	Store *segment.Store
	// Manifest, when non-nil, scopes repair to committed replicas: the
	// scrubber cross-checks it to detect lost replicas (committed but
	// physically absent), repaired replicas land on their recorded tier,
	// and a replica eroded after its damage was detected is skipped
	// rather than resurrected.
	Manifest *segment.Manifest
	// SFs, Parent and Golden describe the storage derivation's fallback
	// tree: Parent[i] is the index in SFs of format i's nearest richer
	// ancestor, -1 for the golden root (see core.FallbackTree).
	SFs    []format.StorageFormat
	Parent []int
	Golden int

	// byKey is built on first use; scrubs and degraded reads resolve
	// formats concurrently.
	byKeyOnce sync.Once
	byKey     map[string]int
}

// New builds a Repairer over the store for a storage derivation.
func New(store *segment.Store, man *segment.Manifest, d *core.StorageDerivation) *Repairer {
	sfs := make([]format.StorageFormat, len(d.SFs))
	for i, dsf := range d.SFs {
		sfs[i] = dsf.SF
	}
	return &Repairer{
		Store:    store,
		Manifest: man,
		SFs:      sfs,
		Parent:   d.FallbackTree(),
		Golden:   d.Golden,
	}
}

// NewMulti builds a Repairer spanning several derivations — one per
// configuration epoch, oldest first — so damaged replicas of any epoch's
// formats resolve. Each derivation contributes its own fallback tree (its
// golden is a root); when epochs share a format key, the newest epoch's
// tree position wins.
func NewMulti(store *segment.Store, man *segment.Manifest, ds ...*core.StorageDerivation) *Repairer {
	r := &Repairer{Store: store, Manifest: man, Golden: -1}
	for _, d := range ds {
		base := len(r.SFs)
		parent := d.FallbackTree()
		for i, dsf := range d.SFs {
			r.SFs = append(r.SFs, dsf.SF)
			p := parent[i]
			if p >= 0 {
				p += base
			}
			r.Parent = append(r.Parent, p)
		}
		if len(d.SFs) > 0 {
			r.Golden = base + d.Golden
		}
	}
	return r
}

// indexOf resolves a storage-format key to its derivation index, -1 if
// the format is not part of the derivation.
func (r *Repairer) indexOf(sfKey string) int {
	r.byKeyOnce.Do(func() {
		r.byKey = make(map[string]int, len(r.SFs))
		for i, sf := range r.SFs {
			r.byKey[sf.Key()] = i
		}
	})
	if i, ok := r.byKey[sfKey]; ok {
		return i
	}
	return -1
}

// Rebuild re-derives segment seg of the stream in sf from the nearest
// richer surviving ancestor, returning the encoded container (encoded
// formats) or the frame set (raw formats). It satisfies
// retrieve.RebuildFunc, so a Retriever pointed at it serves degraded
// reads through the same reconstruction the scrubber commits.
func (r *Repairer) Rebuild(stream string, seg int, sf format.StorageFormat) (*codec.Encoded, []*frame.Frame, error) {
	i := r.indexOf(sf.Key())
	if i < 0 {
		return nil, nil, fmt.Errorf("repair: format %s is not in the derivation", sf.Key())
	}
	if r.Parent[i] < 0 {
		return nil, nil, fmt.Errorf("%w: the golden replica of %s/%d is itself damaged", ErrNoAncestor, stream, seg)
	}
	var lastErr error
	// Walk the fallback chain toward the golden root; the chain is
	// acyclic by construction (core.FallbackTree breaks ties), but bound
	// the walk defensively.
	for a, hops := r.Parent[i], 0; a >= 0 && hops <= len(r.SFs); a, hops = r.Parent[a], hops+1 {
		src, err := r.decodeReplica(stream, r.SFs[a], seg)
		if err != nil {
			lastErr = err
			continue
		}
		return r.transcode(src, sf)
	}
	return nil, nil, fmt.Errorf("%w for %s/%s/%d (last: %v)", ErrNoAncestor, stream, sf.Key(), seg, lastErr)
}

// decodeReplica loads and fully decodes one stored replica.
func (r *Repairer) decodeReplica(stream string, sf format.StorageFormat, seg int) ([]*frame.Frame, error) {
	if sf.Coding.Raw {
		frames, _, err := r.Store.GetRaw(stream, sf, seg, nil)
		if err != nil {
			return nil, err
		}
		if len(frames) == 0 {
			return nil, segment.ErrNotFound
		}
		return frames, nil
	}
	enc, err := r.Store.GetEncoded(stream, sf, seg)
	if err != nil {
		return nil, err
	}
	frames, _, err := enc.Decode()
	if err != nil {
		return nil, err
	}
	return frames, nil
}

// transcode re-runs the ingest transcode for sf over the ancestor's
// decoded frames — the same transform pipeline ingest.TranscodeSegment
// applies to the arriving stream, so a lossless full-fidelity source
// reproduces the original replica bit for bit.
func (r *Repairer) transcode(src []*frame.Frame, sf format.StorageFormat) (*codec.Encoded, []*frame.Frame, error) {
	tw, th := vidsim.Dims(sf.Fidelity.Res)
	fid := sf.Fidelity
	fid.Quality = format.QBest // quality is applied by the encoder, as at ingest
	frames := codec.ApplyFidelity(src, fid, tw, th)
	if len(frames) == 0 {
		return nil, nil, fmt.Errorf("repair: fidelity %v yields no frames", sf.Fidelity)
	}
	if sf.Coding.Raw {
		return nil, frames, nil
	}
	enc, _, err := codec.Encode(frames, codec.ParamsFor(sf))
	if err != nil {
		return nil, nil, err
	}
	return enc, nil, nil
}

// RepairRef rebuilds the replica and commits it back to its recorded
// tier, synced durable. It reports (false, nil) when the replica is no
// longer committed — eroded between damage detection and repair — so the
// scrubber neither resurrects it nor counts it as a failure.
func (r *Repairer) RepairRef(ref segment.Ref) (bool, error) {
	if r.Manifest != nil && !r.Manifest.Contains(ref) {
		return false, nil
	}
	i := r.indexOf(ref.SFKey)
	if i < 0 {
		return false, fmt.Errorf("repair: format %s is not in the derivation", ref.SFKey)
	}
	sf := r.SFs[i]
	enc, frames, err := r.Rebuild(ref.Stream, ref.Idx, sf)
	if err != nil {
		return false, err
	}
	t := tier.Fast
	if r.Manifest != nil {
		if mt, ok := r.Manifest.TierOf(ref); ok {
			t = mt
		}
	} else if pt, ok := r.Store.TierOf(ref); ok {
		t = pt
	}
	if sf.Coding.Raw {
		err = r.Store.PutRawRef(ref, &t, frames)
	} else {
		err = r.Store.PutEncodedRef(ref, &t, enc)
	}
	if err != nil {
		return false, err
	}
	if err := r.Store.Sync(); err != nil {
		return false, err
	}
	return true, nil
}

// Failure records one replica the scrubber could not heal.
type Failure struct {
	Ref segment.Ref
	Err error
}

// Report summarises one scrub pass.
type Report struct {
	Scanned  int           // committed replicas cross-checked against the store
	Corrupt  []segment.Ref // replicas with records failing their checksum
	Lost     []segment.Ref // committed replicas physically absent
	Meta     []string      // damaged non-segment keys (server metadata)
	Repaired []segment.Ref
	Skipped  []segment.Ref // damaged but no longer committed
	Failed   []Failure
}

// Damaged returns the number of replicas found needing repair.
func (rep *Report) Damaged() int { return len(rep.Corrupt) + len(rep.Lost) }

// Scrub is one full pass: checksum every record in the store, cross-check
// the manifest for lost replicas, and repair everything damaged. The
// returned Report is complete even when some repairs fail; the error is
// reserved for the verification walk itself failing.
func (r *Repairer) Scrub() (Report, error) {
	var rep Report
	corrupt, meta, err := r.Store.VerifyAll()
	if err != nil {
		return rep, err
	}
	rep.Corrupt = corrupt
	rep.Meta = meta
	damaged := make(map[segment.Ref]bool, len(corrupt))
	for _, ref := range corrupt {
		damaged[ref] = true
	}
	if r.Manifest != nil {
		for _, t := range []tier.ID{tier.Fast, tier.Cold} {
			for _, ref := range r.Manifest.RefsInTier(t) {
				rep.Scanned++
				if damaged[ref] {
					continue
				}
				if _, present := r.Store.TierOf(ref); !present {
					rep.Lost = append(rep.Lost, ref)
				}
			}
		}
	}
	for _, ref := range append(append([]segment.Ref(nil), rep.Corrupt...), rep.Lost...) {
		ok, err := r.RepairRef(ref)
		switch {
		case err != nil:
			rep.Failed = append(rep.Failed, Failure{Ref: ref, Err: err})
		case ok:
			rep.Repaired = append(rep.Repaired, ref)
		default:
			rep.Skipped = append(rep.Skipped, ref)
		}
	}
	return rep, nil
}
