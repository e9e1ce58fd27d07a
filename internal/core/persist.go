package core

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/format"
	"repro/internal/ops"
	"repro/internal/profile"
)

// configDTO is the JSON form of a derived configuration. Operators are
// persisted by name and resolved through the operator registry on load;
// ErosionPlan and Runtime are saved as they are, under their own tags.
type configDTO struct {
	Consumers []consumerDTO `json:"consumers"`
	SFs       []sfDTO       `json:"storage_formats"`
	Subs      []int         `json:"subscriptions"`
	Golden    int           `json:"golden"`
	Erosion   *ErosionPlan  `json:"erosion,omitempty"`
	Runtime   *Runtime      `json:"runtime,omitempty"`
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
	dto := configDTO{Subs: d.Subs, Golden: d.Golden, Erosion: c.Erosion}
	for _, ch := range d.Choices {
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
	if !c.Runtime.isZero() {
		dto.Runtime = &c.Runtime
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
	cfg := &Config{Derivation: d, Erosion: dto.Erosion}
	if dto.Runtime != nil {
		cfg.Runtime = *dto.Runtime
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
