package core

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/format"
	"repro/internal/ops"
	"repro/internal/profile"
)

// configDTO is the JSON form of a derived configuration. Operators are
// persisted by name and resolved through the operator registry on load.
type configDTO struct {
	Consumers []consumerDTO `json:"consumers"`
	SFs       []sfDTO       `json:"storage_formats"`
	Subs      []int         `json:"subscriptions"`
	Golden    int           `json:"golden"`
	Erosion   *erosionDTO   `json:"erosion,omitempty"`
	Runtime   *runtimeDTO   `json:"runtime,omitempty"`
}

type runtimeDTO struct {
	QueryWorkers     int              `json:"query_workers,omitempty"`
	CacheBytes       int64            `json:"cache_bytes,omitempty"`
	ResultsBytes     int64            `json:"results_bytes,omitempty"`
	IngestQueueDepth int              `json:"ingest_queue_depth,omitempty"`
	ErodeIntervalNS  int64            `json:"erode_interval_ns,omitempty"`
	FastTierBytes    int64            `json:"fast_tier_bytes,omitempty"`
	Shards           int              `json:"shards,omitempty"`
	DemoteAfterDays  int              `json:"demote_after_days,omitempty"`
	Tenants          []tenantQuotaDTO `json:"tenants,omitempty"`
}

type tenantQuotaDTO struct {
	Name        string  `json:"name"`
	Weight      int     `json:"weight,omitempty"`
	MaxInFlight int     `json:"max_in_flight,omitempty"`
	MaxQueue    int     `json:"max_queue,omitempty"`
	RatePerSec  float64 `json:"rate_per_sec,omitempty"`
	Burst       int     `json:"burst,omitempty"`
	BytesPerSec int64   `json:"bytes_per_sec,omitempty"`
}

type consumerDTO struct {
	Op       string  `json:"op"`
	Target   float64 `json:"target"`
	CF       string  `json:"cf"`
	Accuracy float64 `json:"accuracy"`
	Speed    float64 `json:"speed"`
}

type sfDTO struct {
	Fidelity    string  `json:"fidelity"`
	Coding      string  `json:"coding"`
	BytesPerSec float64 `json:"bytes_per_sec"`
	IngestSec   float64 `json:"ingest_sec"`
	Placement   string  `json:"placement"`
}

type erosionDTO struct {
	K            float64     `json:"k"`
	PMin         float64     `json:"p_min"`
	Parent       []int       `json:"parent"`
	DeletedFrac  [][]float64 `json:"deleted_frac"`
	OverallSpeed []float64   `json:"overall_speed"`
	TotalBytes   int64       `json:"total_bytes"`
}

func parseCoding(s string) (format.Coding, error) {
	if s == "RAW" {
		return format.RawCoding, nil
	}
	var kf int
	var speed string
	if _, err := fmt.Sscanf(s, "%d-%s", &kf, &speed); err != nil {
		return format.Coding{}, fmt.Errorf("core: bad coding %q", s)
	}
	for _, ss := range format.SpeedSteps {
		if ss.String() == speed {
			return format.Coding{Speed: ss, KeyframeI: kf}, nil
		}
	}
	return format.Coding{}, fmt.Errorf("core: unknown speed step %q", speed)
}

// Save writes the configuration to path as JSON.
func (c *Config) Save(path string) error {
	b, err := c.MarshalBytes()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// MarshalBytes serialises the configuration as JSON.
func (c *Config) MarshalBytes() ([]byte, error) {
	d := c.Derivation
	dto := configDTO{Subs: d.Subs, Golden: d.Golden}
	for i, ch := range d.Choices {
		_ = i
		dto.Consumers = append(dto.Consumers, consumerDTO{
			Op:       ch.Consumer.Op.Name(),
			Target:   ch.Consumer.Target,
			CF:       ch.CF.Fidelity.String(),
			Accuracy: ch.Profile.Accuracy,
			Speed:    ch.Profile.Speed,
		})
	}
	for _, sf := range d.SFs {
		dto.SFs = append(dto.SFs, sfDTO{
			Fidelity:    sf.SF.Fidelity.String(),
			Coding:      sf.SF.Coding.String(),
			BytesPerSec: sf.Prof.BytesPerSec,
			IngestSec:   sf.Prof.IngestSec,
			Placement:   sf.Placement.String(),
		})
	}
	if c.Erosion != nil {
		dto.Erosion = &erosionDTO{
			K: c.Erosion.K, PMin: c.Erosion.PMin, Parent: c.Erosion.Parent,
			DeletedFrac: c.Erosion.DeletedFrac, OverallSpeed: c.Erosion.OverallSpeed,
			TotalBytes: c.Erosion.TotalBytes,
		}
	}
	if !c.Runtime.isZero() {
		dto.Runtime = &runtimeDTO{
			QueryWorkers:     c.Runtime.QueryWorkers,
			CacheBytes:       c.Runtime.CacheBytes,
			ResultsBytes:     c.Runtime.ResultsBytes,
			IngestQueueDepth: c.Runtime.IngestQueueDepth,
			ErodeIntervalNS:  int64(c.Runtime.ErodeInterval),
			FastTierBytes:    c.Runtime.FastTierBytes,
			Shards:           c.Runtime.Shards,
			DemoteAfterDays:  c.Runtime.DemoteAfterDays,
		}
		for _, t := range c.Runtime.Tenants {
			dto.Runtime.Tenants = append(dto.Runtime.Tenants, tenantQuotaDTO{
				Name:        t.Name,
				Weight:      t.Weight,
				MaxInFlight: t.MaxInFlight,
				MaxQueue:    t.MaxQueue,
				RatePerSec:  t.RatePerSec,
				Burst:       t.Burst,
				BytesPerSec: t.BytesPerSec,
			})
		}
	}
	b, err := json.MarshalIndent(dto, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return b, nil
}

// Load reads a configuration saved by Save. Profilers are not restored;
// the loaded configuration carries the profiled numbers it was saved with.
func Load(path string) (*Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfg, err := FromBytes(b)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", path, err)
	}
	return cfg, nil
}

// FromBytes parses a configuration serialised by MarshalBytes.
func FromBytes(b []byte) (*Config, error) {
	var dto configDTO
	if err := json.Unmarshal(b, &dto); err != nil {
		return nil, fmt.Errorf("core: parsing configuration: %w", err)
	}
	d := &StorageDerivation{Subs: dto.Subs, Golden: dto.Golden}
	for _, c := range dto.Consumers {
		op, err := ops.ByName(c.Op)
		if err != nil {
			return nil, err
		}
		fid, err := format.ParseFidelity(c.CF)
		if err != nil {
			return nil, err
		}
		d.Choices = append(d.Choices, ConsumptionChoice{
			Consumer: Consumer{Op: op, Target: c.Target},
			CF:       format.ConsumptionFormat{Fidelity: fid},
			Profile:  profile.CFProfile{Fidelity: fid, Accuracy: c.Accuracy, Speed: c.Speed},
		})
	}
	for _, s := range dto.SFs {
		fid, err := format.ParseFidelity(s.Fidelity)
		if err != nil {
			return nil, err
		}
		coding, err := parseCoding(s.Coding)
		if err != nil {
			return nil, err
		}
		placement, err := ParsePlacement(s.Placement)
		if err != nil {
			return nil, err
		}
		sf := format.StorageFormat{Fidelity: fid, Coding: coding}
		d.SFs = append(d.SFs, DerivedSF{
			SF:        sf,
			Prof:      profile.SFProfile{SF: sf, BytesPerSec: s.BytesPerSec, IngestSec: s.IngestSec},
			Placement: placement,
		})
	}
	for ci, si := range d.Subs {
		if si < 0 || si >= len(d.SFs) || ci >= len(d.Choices) {
			return nil, fmt.Errorf("core: invalid subscription %d -> %d", ci, si)
		}
		d.SFs[si].Consumers = append(d.SFs[si].Consumers, ci)
	}
	cfg := &Config{Derivation: d}
	if dto.Erosion != nil {
		cfg.Erosion = &ErosionPlan{
			K: dto.Erosion.K, PMin: dto.Erosion.PMin, Parent: dto.Erosion.Parent,
			DeletedFrac: dto.Erosion.DeletedFrac, OverallSpeed: dto.Erosion.OverallSpeed,
			TotalBytes: dto.Erosion.TotalBytes,
		}
	}
	if dto.Runtime != nil {
		cfg.Runtime = Runtime{
			QueryWorkers:     dto.Runtime.QueryWorkers,
			CacheBytes:       dto.Runtime.CacheBytes,
			ResultsBytes:     dto.Runtime.ResultsBytes,
			IngestQueueDepth: dto.Runtime.IngestQueueDepth,
			ErodeInterval:    time.Duration(dto.Runtime.ErodeIntervalNS),
			FastTierBytes:    dto.Runtime.FastTierBytes,
			Shards:           dto.Runtime.Shards,
			DemoteAfterDays:  dto.Runtime.DemoteAfterDays,
		}
		for _, t := range dto.Runtime.Tenants {
			cfg.Runtime.Tenants = append(cfg.Runtime.Tenants, TenantQuota{
				Name:        t.Name,
				Weight:      t.Weight,
				MaxInFlight: t.MaxInFlight,
				MaxQueue:    t.MaxQueue,
				RatePerSec:  t.RatePerSec,
				Burst:       t.Burst,
				BytesPerSec: t.BytesPerSec,
			})
		}
	}
	return cfg, nil
}

// BindingFor returns the (CF, SF) assignment of the named consumer, used by
// query engines to bind cascade stages.
func (c *Config) BindingFor(opName string, target float64) (format.ConsumptionFormat, format.StorageFormat, error) {
	d := c.Derivation
	for i, ch := range d.Choices {
		if ch.Consumer.Op.Name() == opName && ch.Consumer.Target == target {
			return ch.CF, d.SFs[d.Subs[i]].SF, nil
		}
	}
	return format.ConsumptionFormat{}, format.StorageFormat{},
		fmt.Errorf("core: no consumer <%s,%.2f> in configuration", opName, target)
}

// Placements returns the configuration's tier placement keyed by storage
// format key — what the server's ingest path consults to land each
// format's segments on the right disk tier. Should two derived formats
// ever share a key, the fast placement wins (placement is a retrieval
// floor, never a promise of coldness).
func (c *Config) Placements() map[string]Placement {
	out := make(map[string]Placement, len(c.Derivation.SFs))
	for _, sf := range c.Derivation.SFs {
		k := sf.SF.Key()
		if p, ok := out[k]; ok && p == PlaceFast {
			continue
		}
		out[k] = sf.Placement
	}
	return out
}

// StorageFormats returns the configuration's storage formats in order.
func (c *Config) StorageFormats() []format.StorageFormat {
	out := make([]format.StorageFormat, len(c.Derivation.SFs))
	for i, sf := range c.Derivation.SFs {
		out[i] = sf.SF
	}
	return out
}
