package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/format"
	"repro/internal/profile"
)

// Strategy selects how coalescing pairs are chosen (§4.3 explores two).
type Strategy int

// Coalescing strategies.
const (
	// HeuristicSelection harvests free coalescing opportunities first, then
	// coalesces at the expense of storage (the paper's choice).
	HeuristicSelection Strategy = iota
	// DistanceSelection coalesces the knob-wise nearest pair (the
	// hierarchical-clustering alternative the paper evaluates against).
	DistanceSelection
)

// Placement is a storage format's disk-tier assignment (§4.1 places
// formats across fast and slow media): retrieval-hot formats go to the
// fast tier, archival ones to the cold tier.
type Placement int

// The two placements.
const (
	PlaceFast Placement = iota
	PlaceCold
)

// String returns the placement's persisted name.
func (p Placement) String() string {
	if p == PlaceCold {
		return "cold"
	}
	return "fast"
}

// ParsePlacement parses a persisted placement name. A missing (empty)
// name is an error like any other unknown one: every configuration this
// repo writes names each format's tier.
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case "fast":
		return PlaceFast, nil
	case "cold":
		return PlaceCold, nil
	}
	return PlaceFast, fmt.Errorf("core: unknown placement %q", s)
}

// ColdSlowdown models the cold tier's retrieval bandwidth penalty
// relative to fast media. Placement derivation keeps a format on fast
// media iff some subscriber's retrieval-speed demand could not be met
// from a cold-tier read at this slowdown.
const ColdSlowdown = 8.0

// DerivedSF is one storage format of a configuration together with its
// profile, subscribers, and disk-tier placement.
type DerivedSF struct {
	SF        format.StorageFormat
	Prof      profile.SFProfile
	Consumers []int // indices into the ConsumptionChoice slice
	Placement Placement
	minSpeed  format.SpeedStep
}

// StorageDerivation is the output of §4.3: the coalesced storage format set,
// each consumer's subscription, and bookkeeping about the derivation.
type StorageDerivation struct {
	Choices []ConsumptionChoice
	SFs     []DerivedSF
	Subs    []int // per choice: index into SFs
	Golden  int   // index of the golden format in SFs
	Rounds  int   // coalescing rounds performed
}

// TotalIngestSec returns the ingest cost of the SF set in CPU-seconds per
// second of ingested video (≈ CPU cores).
func (d *StorageDerivation) TotalIngestSec() float64 {
	var t float64
	for _, sf := range d.SFs {
		t += sf.Prof.IngestSec
	}
	return t
}

// TotalBytesPerSec returns the storage cost of the SF set in stored bytes
// per second of ingested video.
func (d *StorageDerivation) TotalBytesPerSec() float64 {
	var t float64
	for _, sf := range d.SFs {
		t += sf.Prof.BytesPerSec
	}
	return t
}

// SFOptions configures storage-format derivation.
type SFOptions struct {
	// Profiler profiles storage formats (size, ingest cost, retrieval
	// speed) on a representative scene.
	Profiler StorageProfiler
	// IngestBudgetSec caps the ingest cost in CPU-seconds per video-second
	// (the number of transcoding cores). Zero means unlimited.
	IngestBudgetSec float64
	// Strategy selects the coalescing-pair policy.
	Strategy Strategy
	// Trace prints each coalescing decision (debugging aid).
	Trace bool
}

// kfLargestFirst is the keyframe-interval search order: for a given speed
// step, larger intervals store fewer keyframes and hence fewer bytes, so the
// first retrieval-feasible interval is the (approximately) cheapest.
var kfLargestFirst = func() []int {
	ks := append([]int(nil), format.KeyframeIntervals...)
	sort.Sort(sort.Reverse(sort.IntSlice(ks)))
	return ks
}()

// demand is one subscriber's retrieval requirement: the SF must supply
// frames at the consumer's sampling rate at least as fast as the consumer
// processes them (R2).
type demand struct {
	sampling format.Sampling
	speed    float64
}

// chooseCoding returns the cheapest-storage coding option with speed step at
// least minSpeed whose retrieval speed satisfies every demand. If no
// encoded option suffices it falls back to the coding bypass (raw frames),
// which maximises retrieval speed at maximal storage cost.
func chooseCoding(p StorageProfiler, fid format.Fidelity, demands []demand, minSpeed format.SpeedStep) format.Coding {
	for _, speed := range format.SpeedSteps {
		if speed < minSpeed {
			continue
		}
		for _, kf := range kfLargestFirst {
			c := format.Coding{Speed: speed, KeyframeI: kf}
			if satisfiesAll(p, format.StorageFormat{Fidelity: fid, Coding: c}, demands) {
				return c
			}
		}
	}
	return format.RawCoding
}

func satisfiesAll(p StorageProfiler, sf format.StorageFormat, demands []demand) bool {
	for _, d := range demands {
		if p.RetrievalSpeed(sf, d.sampling) < d.speed {
			return false
		}
	}
	return true
}

// sfFidelity normalises a fidelity for storage: raw (bypass) storage has no
// quality knob (Table 1), so raw formats always store best quality.
func sfFor(p StorageProfiler, fid format.Fidelity, demands []demand, minSpeed format.SpeedStep) format.StorageFormat {
	c := chooseCoding(p, fid, demands, minSpeed)
	if c.Raw {
		fid.Quality = format.QBest
	}
	return format.StorageFormat{Fidelity: fid, Coding: c}
}

// demandsOf collects the retrieval demands of a consumer set.
func demandsOf(choices []ConsumptionChoice, consumers []int) []demand {
	out := make([]demand, 0, len(consumers))
	for _, ci := range consumers {
		out = append(out, demand{
			sampling: choices[ci].CF.Fidelity.Sampling,
			speed:    choices[ci].Profile.Speed,
		})
	}
	return out
}

// DeriveStorageFormats runs §4.3: starting from one storage format per
// unique consumption format plus the golden format, it iteratively coalesces
// pairs until no free opportunity remains and the ingest budget is met.
func DeriveStorageFormats(choices []ConsumptionChoice, opt SFOptions) (*StorageDerivation, error) {
	if opt.Profiler == nil {
		return nil, errors.New("core: SFOptions.Profiler is required")
	}
	if len(choices) == 0 {
		return nil, errors.New("core: no consumers")
	}
	p := opt.Profiler
	cfs, cfIdx := UniqueCFs(choices)

	d := &StorageDerivation{Choices: choices, Subs: make([]int, len(choices))}
	// Initial set: one SF per unique CF, identical fidelity.
	for j, cf := range cfs {
		var subs []int
		for i := range choices {
			if cfIdx[i] == j {
				subs = append(subs, i)
			}
		}
		sf := sfFor(p, cf.Fidelity, demandsOf(choices, subs), format.SpeedSlowest)
		d.SFs = append(d.SFs, DerivedSF{SF: sf, Prof: p.ProfileStorage(sf), Consumers: subs})
	}
	// The golden format: knob-wise maximum fidelity of all CFs, coding with
	// the lowest storage cost. It is the ultimate erosion fallback (§4.4).
	gFid := cfs[0].Fidelity
	for _, cf := range cfs[1:] {
		gFid = gFid.Max(cf.Fidelity)
	}
	gSF := sfFor(p, gFid, nil, format.SpeedSlowest)
	d.SFs = append(d.SFs, DerivedSF{SF: gSF, Prof: p.ProfileStorage(gSF)})
	d.Golden = len(d.SFs) - 1

	switch opt.Strategy {
	case DistanceSelection:
		coalesceByDistance(d, p, opt.IngestBudgetSec)
	default:
		coalesceByHeuristic(d, p, opt.Trace)
	}
	// Budget adaptation: if ingest still exceeds the budget, progressively
	// pick cheaper (faster) coding options, trading storage for ingest
	// (Table 4).
	if err := adaptToIngestBudget(d, p, opt.IngestBudgetSec); err != nil {
		return nil, err
	}
	d.rebuildSubs()
	derivePlacements(d, p)
	return d, nil
}

// derivePlacements assigns each storage format to a disk tier from its
// derived retrieval-speed demand: a format stays on fast media iff some
// subscriber's required consumption speed exceeds what a ColdSlowdown×
// slower cold-tier read of that format could supply (R2 would break on
// cold media). Unsubscribed formats — notably the golden archival
// fallback — go cold. The rule is a pure function of the derivation and
// the profiler, so the placement plan is byte-identical across runs.
func derivePlacements(d *StorageDerivation, p StorageProfiler) {
	for i := range d.SFs {
		sf := &d.SFs[i]
		sf.Placement = PlaceCold
		for _, ci := range sf.Consumers {
			ch := d.Choices[ci]
			if p.RetrievalSpeed(sf.SF, ch.CF.Fidelity.Sampling)/ColdSlowdown < ch.Profile.Speed {
				sf.Placement = PlaceFast
				break
			}
		}
	}
}

// coalesced builds the candidate SF resulting from merging SFs i and j.
func coalesced(d *StorageDerivation, p StorageProfiler, i, j int, minSpeed format.SpeedStep) DerivedSF {
	fid := d.SFs[i].SF.Fidelity.Max(d.SFs[j].SF.Fidelity)
	subs := append(append([]int(nil), d.SFs[i].Consumers...), d.SFs[j].Consumers...)
	if i == d.Golden || j == d.Golden {
		// Coalescing into the golden format must keep its fidelity.
		fid = fid.Max(d.SFs[d.Golden].SF.Fidelity)
	}
	sf := sfFor(p, fid, demandsOf(d.Choices, subs), minSpeed)
	return DerivedSF{SF: sf, Prof: p.ProfileStorage(sf), Consumers: subs, minSpeed: minSpeed}
}

// applyCoalesce replaces SFs i and j with the merged format.
func applyCoalesce(d *StorageDerivation, i, j int, merged DerivedSF) {
	if j < i {
		i, j = j, i
	}
	goldenMerged := i == d.Golden || j == d.Golden
	// Remove j first (higher index), then replace i.
	d.SFs = append(d.SFs[:j], d.SFs[j+1:]...)
	d.SFs[i] = merged
	if goldenMerged {
		d.Golden = i
	} else if d.Golden > j {
		d.Golden--
	}
	d.Rounds++
}

// coalesceByHeuristic implements the paper's pair selection: repeatedly
// coalesce the pair that reduces ingest cost without increasing storage
// cost; once none remains, stop (budget pressure is handled separately).
func coalesceByHeuristic(d *StorageDerivation, p StorageProfiler, trace bool) {
	for {
		bestI, bestJ := -1, -1
		var bestMerged DerivedSF
		bestDStorage := math.Inf(1)
		for i := 0; i < len(d.SFs); i++ {
			for j := i + 1; j < len(d.SFs); j++ {
				m := coalesced(d, p, i, j, format.SpeedSlowest)
				dIngest := m.Prof.IngestSec - d.SFs[i].Prof.IngestSec - d.SFs[j].Prof.IngestSec
				dStorage := m.Prof.BytesPerSec - d.SFs[i].Prof.BytesPerSec - d.SFs[j].Prof.BytesPerSec
				if trace {
					fmt.Printf("  pair %v + %v -> %v dIngest=%.4f dStorage=%.0f\n",
						d.SFs[i].SF, d.SFs[j].SF, m.SF, dIngest, dStorage)
				}
				if dIngest < 0 && dStorage <= 0 && dStorage < bestDStorage {
					bestI, bestJ, bestMerged, bestDStorage = i, j, m, dStorage
				}
			}
		}
		if bestI < 0 {
			return
		}
		if trace {
			fmt.Printf("MERGE %v + %v -> %v\n", d.SFs[bestI].SF, d.SFs[bestJ].SF, bestMerged.SF)
		}
		applyCoalesce(d, bestI, bestJ, bestMerged)
	}
}

// coalesceByDistance implements the clustering alternative: normalise knob
// values, repeatedly merge the pair of formats at the smallest Euclidean
// distance, and stop when ingest meets the budget (or when only the golden
// format would remain).
func coalesceByDistance(d *StorageDerivation, p StorageProfiler, budget float64) {
	for len(d.SFs) > 2 {
		if budget > 0 && d.TotalIngestSec() <= budget {
			return
		}
		if budget <= 0 && len(d.SFs) <= 5 {
			// Without a budget, stop at the paper's typical SF-set size.
			return
		}
		bestI, bestJ := -1, -1
		best := math.Inf(1)
		for i := 0; i < len(d.SFs); i++ {
			for j := i + 1; j < len(d.SFs); j++ {
				if dist := knobDistance(d.SFs[i].SF.Fidelity, d.SFs[j].SF.Fidelity); dist < best {
					bestI, bestJ, best = i, j, dist
				}
			}
		}
		m := coalesced(d, p, bestI, bestJ, format.SpeedSlowest)
		applyCoalesce(d, bestI, bestJ, m)
	}
}

// knobDistance is the Euclidean distance between fidelities with each knob
// normalised to [0,1] by its index in the knob's value list.
func knobDistance(a, b format.Fidelity) float64 {
	n := func(idx, n int) float64 { return float64(idx) / float64(n-1) }
	qa := n(int(a.Quality), len(format.Qualities))
	qb := n(int(b.Quality), len(format.Qualities))
	ca := n(cropIndex(a.Crop), len(format.Crops))
	cb := n(cropIndex(b.Crop), len(format.Crops))
	ra := n(resIndex(a.Res), len(format.Resolutions))
	rb := n(resIndex(b.Res), len(format.Resolutions))
	sa := n(samplingIndex(a.Sampling), len(format.Samplings))
	sb := n(samplingIndex(b.Sampling), len(format.Samplings))
	return math.Sqrt((qa-qb)*(qa-qb) + (ca-cb)*(ca-cb) + (ra-rb)*(ra-rb) + (sa-sb)*(sa-sb))
}

func cropIndex(c format.Crop) int {
	for i, v := range format.Crops {
		if v == c {
			return i
		}
	}
	return 0
}

func resIndex(r format.Resolution) int {
	for i, v := range format.Resolutions {
		if v == r {
			return i
		}
	}
	return 0
}

func samplingIndex(s format.Sampling) int {
	for i, v := range format.Samplings {
		if v == s {
			return i
		}
	}
	return 0
}

// adaptToIngestBudget brings ingest cost under the budget by repeatedly
// taking the action with the least storage penalty per CPU-second saved:
// either speeding up one format's coding by a step (cheaper encoding,
// bigger output) or coalescing a pair of formats.
func adaptToIngestBudget(d *StorageDerivation, p StorageProfiler, budget float64) error {
	if budget <= 0 {
		return nil
	}
	for d.TotalIngestSec() > budget {
		type action struct {
			apply    func()
			dIngest  float64 // negative: savings
			dStorage float64
		}
		var best *action
		bestScore := math.Inf(1)
		consider := func(a action) {
			if a.dIngest >= 0 {
				return
			}
			score := a.dStorage / -a.dIngest
			if score < bestScore {
				bestScore = score
				best = &a
			}
		}
		// Option A: speed up one SF's coding by one step.
		for i := range d.SFs {
			sf := d.SFs[i]
			if sf.SF.Coding.Raw || sf.minSpeed >= format.SpeedFastest {
				continue
			}
			i := i
			ms := sf.minSpeed + 1
			cand := sfFor(p, sf.SF.Fidelity, demandsOf(d.Choices, sf.Consumers), ms)
			prof := p.ProfileStorage(cand)
			consider(action{
				apply: func() {
					d.SFs[i] = DerivedSF{SF: cand, Prof: prof, Consumers: d.SFs[i].Consumers, minSpeed: ms}
				},
				dIngest:  prof.IngestSec - sf.Prof.IngestSec,
				dStorage: prof.BytesPerSec - sf.Prof.BytesPerSec,
			})
		}
		// Option B: coalesce a pair.
		for i := 0; i < len(d.SFs); i++ {
			for j := i + 1; j < len(d.SFs); j++ {
				i, j := i, j
				m := coalesced(d, p, i, j, format.SpeedSlowest)
				consider(action{
					apply:    func() { applyCoalesce(d, i, j, m) },
					dIngest:  m.Prof.IngestSec - d.SFs[i].Prof.IngestSec - d.SFs[j].Prof.IngestSec,
					dStorage: m.Prof.BytesPerSec - d.SFs[i].Prof.BytesPerSec - d.SFs[j].Prof.BytesPerSec,
				})
			}
		}
		if best == nil {
			return fmt.Errorf("core: cannot meet ingest budget of %.2f CPU-sec/sec (need %.2f)",
				budget, d.TotalIngestSec())
		}
		best.apply()
	}
	return nil
}

// rebuildSubs recomputes each consumer's subscription: the satisfying SF
// with adequate retrieval speed; among several, the one with the fastest
// retrieval requirement met at the lowest storage cost (its own SF first).
func (d *StorageDerivation) rebuildSubs() {
	for i := range d.Subs {
		d.Subs[i] = -1
	}
	for si, sf := range d.SFs {
		for _, ci := range sf.Consumers {
			d.Subs[ci] = si
		}
	}
	// Consumers not attached to any SF (possible only for golden-merged
	// cases) fall back to the golden format.
	for i, s := range d.Subs {
		if s < 0 {
			d.Subs[i] = d.Golden
			d.SFs[d.Golden].Consumers = append(d.SFs[d.Golden].Consumers, i)
		}
	}
}

// Validate checks requirements R1 (satisfiable fidelity) and R2 (adequate
// retrieval speed, best-effort for raw) for every consumer, and R4 (ingest
// budget) if one is given. It returns the first violation found.
func (d *StorageDerivation) Validate(p StorageProfiler, ingestBudget float64) error {
	for i, ch := range d.Choices {
		sf := d.SFs[d.Subs[i]]
		if !sf.SF.Satisfies(ch.CF) {
			return fmt.Errorf("core: R1 violated: %v cannot supply %v", sf.SF, ch.CF)
		}
		if !sf.SF.Coding.Raw {
			if got := p.RetrievalSpeed(sf.SF, ch.CF.Fidelity.Sampling); got < ch.Profile.Speed {
				return fmt.Errorf("core: R2 violated: %v retrieves at %.0fx for %v needing %.0fx",
					sf.SF, got, ch.Consumer, ch.Profile.Speed)
			}
		}
	}
	if ingestBudget > 0 && d.TotalIngestSec() > ingestBudget+1e-9 {
		return fmt.Errorf("core: R4 violated: ingest %.2f exceeds budget %.2f", d.TotalIngestSec(), ingestBudget)
	}
	return nil
}
