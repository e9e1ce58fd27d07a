package core

import (
	"errors"
	"fmt"
	"math"
)

// ErosionOptions configures age-based data erosion planning (§4.4).
type ErosionOptions struct {
	// Profiler supplies retrieval speeds for fallback formats.
	Profiler StorageProfiler
	// LifespanDays is the retention period of ingested video.
	LifespanDays int
	// StorageBudgetBytes caps the total footprint of one stream over its
	// whole lifespan. Zero means unlimited (no erosion, k=0).
	StorageBudgetBytes int64
	// KMax bounds the decay-factor binary search.
	KMax float64
	// Tolerance is the relative precision of the binary search on k.
	Tolerance float64
}

// ErosionPlan is the derived plan: for each age (day) and storage format,
// the cumulative fraction of segments deleted.
type ErosionPlan struct {
	K            float64     `json:"k"`
	PMin         float64     `json:"p_min"`
	Parent       []int       `json:"parent"`        // fallback tree: Parent[i] is the richer format; -1 for the golden root
	DeletedFrac  [][]float64 `json:"deleted_frac"`  // [age-1][sfIndex] cumulative deleted fraction
	OverallSpeed []float64   `json:"overall_speed"` // [age-1] overall relative speed after erosion
	TotalBytes   int64       `json:"total_bytes"`   // lifespan footprint under the plan
}

// relSpeedParams precomputes per-consumer speeds along its fallback chain.
type relSpeedParams struct {
	sub   int       // consumer's SF index
	chain []int     // sub, parent(sub), ..., golden
	speed []float64 // effective speed on each chain element (× realtime)
}

// PlanErosion derives the erosion plan for a storage derivation: the
// fallback tree over storage formats, per-age deletion fractions chosen by a
// max-min fair planner, and the smallest decay factor k whose power-law
// speed targets bring the lifespan storage under budget.
func PlanErosion(d *StorageDerivation, opt ErosionOptions) (*ErosionPlan, error) {
	if opt.Profiler == nil {
		return nil, errors.New("core: ErosionOptions.Profiler is required")
	}
	if opt.LifespanDays <= 0 {
		return nil, errors.New("core: lifespan must be positive")
	}
	if opt.KMax <= 0 {
		opt.KMax = 64
	}
	if opt.Tolerance <= 0 {
		opt.Tolerance = 1.0 / 128
	}
	parent := fallbackTree(d)
	params := consumerChains(d, parent, opt.Profiler)
	pmin := overallSpeed(d, params, allDeleted(d))

	build := func(k float64) *ErosionPlan {
		plan := &ErosionPlan{K: k, PMin: pmin, Parent: parent}
		frac := make([]float64, len(d.SFs))
		var total int64
		bytesPerDay := func(fr []float64) int64 {
			var b float64
			for i, sf := range d.SFs {
				b += sf.Prof.BytesPerSec * 86400 * (1 - fr[i])
			}
			return int64(b)
		}
		for age := 1; age <= opt.LifespanDays; age++ {
			target := (1-pmin)*math.Pow(float64(age), -k) + pmin
			erodeToTarget(d, params, frac, target)
			fcopy := append([]float64(nil), frac...)
			plan.DeletedFrac = append(plan.DeletedFrac, fcopy)
			speed := overallSpeed(d, params, frac)
			plan.OverallSpeed = append(plan.OverallSpeed, speed)
			total += bytesPerDay(frac)
		}
		plan.TotalBytes = total
		return plan
	}

	flat := build(0)
	if opt.StorageBudgetBytes <= 0 || flat.TotalBytes <= opt.StorageBudgetBytes {
		return flat, nil // no decay needed (the k=0 flat line of Fig 13a)
	}
	// Higher k always stores less; binary search the smallest sufficient k.
	if p := build(opt.KMax); p.TotalBytes > opt.StorageBudgetBytes {
		return nil, fmt.Errorf("core: storage budget %d infeasible: even k=%.0f needs %d bytes",
			opt.StorageBudgetBytes, opt.KMax, p.TotalBytes)
	}
	lo, hi := 0.0, opt.KMax
	for hi-lo > opt.Tolerance {
		mid := (lo + hi) / 2
		if build(mid).TotalBytes <= opt.StorageBudgetBytes {
			hi = mid
		} else {
			lo = mid
		}
	}
	return build(hi), nil
}

// FallbackTree returns the fallback parents over the derived storage
// formats: FallbackTree()[i] is the index of the least-rich format with
// richer-or-equal fidelity, -1 for the golden root. Erosion planning
// walks it to price fallback reads; the repair layer walks the same tree
// upward to find the nearest richer surviving ancestor a damaged or lost
// replica of SF i can be re-derived from.
func (d *StorageDerivation) FallbackTree() []int { return fallbackTree(d) }

// fallbackTree picks each format's parent: the cheapest-to-store format with
// strictly richer-or-equal fidelity, the golden format as the universal
// root (§4.4: consumers fall back to richer ancestors).
func fallbackTree(d *StorageDerivation) []int {
	parent := make([]int, len(d.SFs))
	for i := range d.SFs {
		if i == d.Golden {
			parent[i] = -1
			continue
		}
		best := d.Golden
		for j := range d.SFs {
			if j == i || j == d.Golden {
				continue
			}
			if !d.SFs[j].SF.Fidelity.RicherEq(d.SFs[i].SF.Fidelity) {
				continue
			}
			// Prefer the least-rich eligible parent so fallback stays cheap.
			if d.SFs[best].SF.Fidelity.RicherEq(d.SFs[j].SF.Fidelity) {
				best = j
			}
		}
		parent[i] = best
	}
	// Guard against cycles between equal-fidelity formats: break ties by
	// index ordering toward the golden root.
	for i := range parent {
		seen := map[int]bool{}
		j := i
		for j >= 0 && !seen[j] {
			seen[j] = true
			j = parent[j]
		}
		if j >= 0 { // cycle: re-root this node at golden
			parent[i] = d.Golden
		}
	}
	return parent
}

// consumerChains precomputes each consumer's fallback chain and effective
// speed on every chain element: min(consumption speed, retrieval speed of
// the element for the consumer's sampling).
func consumerChains(d *StorageDerivation, parent []int, p StorageProfiler) []relSpeedParams {
	out := make([]relSpeedParams, len(d.Choices))
	for ci, ch := range d.Choices {
		prm := relSpeedParams{sub: d.Subs[ci]}
		for s := d.Subs[ci]; s >= 0; s = parent[s] {
			prm.chain = append(prm.chain, s)
			ret := p.RetrievalSpeed(d.SFs[s].SF, ch.CF.Fidelity.Sampling)
			eff := math.Min(ch.Profile.Speed, ret)
			if eff <= 0 {
				eff = 1e-9
			}
			prm.speed = append(prm.speed, eff)
		}
		out[ci] = prm
	}
	return out
}

// relativeSpeed computes one consumer's relative speed given per-format
// deletion fractions: the generalisation of the paper's α/((1−p)α+p) to a
// multi-level fallback chain. A segment is served by the first surviving
// chain element; expected time per unit of video is the mixture of the
// chain's per-element times.
func relativeSpeed(prm relSpeedParams, frac []float64) float64 {
	expTime := 0.0
	remain := 1.0
	for i, s := range prm.chain {
		avail := 1 - frac[s]
		if i == len(prm.chain)-1 {
			avail = 1 // the golden root is never eroded
		}
		expTime += remain * avail / prm.speed[i]
		remain *= 1 - avail
		if remain <= 0 {
			break
		}
	}
	expTime += remain / prm.speed[len(prm.speed)-1]
	full := 1 / prm.speed[0]
	return full / expTime
}

// overallSpeed is the max-min-fair overall metric: the minimum relative
// speed across all consumers.
func overallSpeed(d *StorageDerivation, params []relSpeedParams, frac []float64) float64 {
	minSpeed := 1.0
	for _, prm := range params {
		if s := relativeSpeed(prm, frac); s < minSpeed {
			minSpeed = s
		}
	}
	return minSpeed
}

func allDeleted(d *StorageDerivation) []float64 {
	frac := make([]float64, len(d.SFs))
	for i := range frac {
		if i != d.Golden {
			frac[i] = 1
		}
	}
	return frac
}

// erosionStep is the deletion-fraction granularity of the fair planner.
const erosionStep = 0.01

// erodeToTarget deletes segment fractions, always from the format whose
// deletion leaves the highest overall (minimum) speed — the fair-scheduler
// analogue of §4.4 — until the overall speed drops to the target.
func erodeToTarget(d *StorageDerivation, params []relSpeedParams, frac []float64, target float64) {
	for overallSpeed(d, params, frac) > target {
		bestSF := -1
		bestSpeed := -1.0
		for s := range d.SFs {
			if s == d.Golden || frac[s] >= 1 {
				continue
			}
			old := frac[s]
			frac[s] = math.Min(1, old+erosionStep)
			sp := overallSpeed(d, params, frac)
			frac[s] = old
			if sp > bestSpeed {
				bestSpeed = sp
				bestSF = s
			}
		}
		if bestSF < 0 {
			return // everything but golden is gone
		}
		frac[bestSF] = math.Min(1, frac[bestSF]+erosionStep)
	}
}
