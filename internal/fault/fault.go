// Package fault is the store's failpoint layer: deterministic, seeded
// injection of I/O faults — read and write errors, torn (short) writes,
// sync failures, and single-bit flips — at the sites kvstore instruments.
// It exists so tests, the nightly soak, and operational drills can
// exercise every failure path the self-healing machinery must survive,
// without touching real disks.
//
// The package is a no-op unless an Injector is installed: every hook
// starts with one atomic pointer load, so production reads and writes pay
// nothing measurable. Rules come from the VSTORE_FAULTS environment
// variable (see Parse) with VSTORE_FAULT_SEED picking the deterministic
// decision stream, or programmatically via New + Install.
//
// Determinism: each decision hashes (seed, rule index, site, n) where n
// is the injector's operation counter, so a fixed operation order yields
// a fixed fault schedule. Concurrent schedules interleave the counter,
// but any individual decision is a pure function of its inputs — reruns
// with the same seed explore the same fault density.
package fault

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// ErrInjected is the sentinel every injected error wraps: callers (and
// tests) distinguish deliberate faults from real I/O failures with
// errors.Is(err, ErrInjected).
var ErrInjected = errors.New("fault: injected")

// Op classifies the I/O operation a rule arms.
type Op uint8

const (
	Read Op = iota
	Write
	Sync
	Compact
)

func (o Op) String() string {
	switch o {
	case Read:
		return "read"
	case Write:
		return "write"
	case Sync:
		return "sync"
	case Compact:
		return "compact"
	}
	return fmt.Sprintf("op(%d)", o)
}

// Mode is what happens when a rule fires.
type Mode uint8

const (
	// Err fails the operation outright (reads return an error, writes
	// fail before any byte lands).
	Err Mode = iota
	// Torn writes a strict prefix of the record and then fails — the
	// on-disk image a crash mid-write leaves behind. Meaningful for
	// writes only; on other ops it degrades to Err.
	Torn
	// Flip flips one deterministic bit of the bytes read — post-write
	// bit rot as the read path observes it. Meaningful for reads only;
	// on other ops it degrades to Err.
	Flip
)

func (m Mode) String() string {
	switch m {
	case Err:
		return "err"
	case Torn:
		return "torn"
	case Flip:
		return "flip"
	}
	return fmt.Sprintf("mode(%d)", m)
}

// Rule arms one failure: operations of class Op at sites matching every
// Scope substring fire Mode with probability Rate.
type Rule struct {
	Op    Op
	Scope []string // substrings that must ALL appear in the site; empty = every site
	Mode  Mode
	Rate  float64 // probability in (0,1]; 1 fires every time
}

func (r Rule) String() string {
	s := r.Op.String()
	if len(r.Scope) > 0 {
		s += "@" + strings.Join(r.Scope, "+")
	}
	return fmt.Sprintf("%s=%s:%g", s, r.Mode, r.Rate)
}

// Injector evaluates rules against instrumented I/O sites.
type Injector struct {
	seed     uint64
	rules    []Rule
	n        atomic.Uint64 // decision counter: the determinism clock
	injected atomic.Uint64
}

// New builds an injector with the given decision seed and rules.
func New(seed uint64, rules []Rule) *Injector {
	return &Injector{seed: seed, rules: rules}
}

// Injected returns how many faults this injector has fired.
func (in *Injector) Injected() uint64 { return in.injected.Load() }

// Rules returns a copy of the injector's rule set.
func (in *Injector) Rules() []Rule { return append([]Rule(nil), in.rules...) }

// active is the process-global injector; nil means every hook is a no-op.
var active atomic.Pointer[Injector]

// Install makes in the process-global injector. Install(nil) disables
// injection. Safe to call concurrently with instrumented I/O.
func Install(in *Injector) { active.Store(in) }

// Enabled reports whether an injector is installed.
func Enabled() bool { return active.Load() != nil }

// Injected returns the installed injector's fired-fault count (0 when
// none is installed).
func Injected() uint64 {
	if in := active.Load(); in != nil {
		return in.Injected()
	}
	return 0
}

// splitmix64 is the decision hash: tiny, stateless, well mixed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a 64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// decide returns the firing rule (and a per-decision hash for torn/flip
// positioning) for one operation at site, or nil.
func (in *Injector) decide(op Op, site string) (*Rule, uint64) {
	n := in.n.Add(1)
	for ri := range in.rules {
		r := &in.rules[ri]
		if r.Op != op || !matches(r.Scope, site) {
			continue
		}
		h := splitmix64(in.seed ^ splitmix64(n) ^ hashString(site) ^ uint64(ri)<<56)
		if r.Rate >= 1 || float64(h>>11)/float64(1<<53) < r.Rate {
			in.injected.Add(1)
			return r, splitmix64(h)
		}
	}
	return nil, 0
}

func matches(scope []string, site string) bool {
	for _, s := range scope {
		if !strings.Contains(site, s) {
			return false
		}
	}
	return true
}

// OnRead runs read-site rules for the keyed site "<scope>:<key>", which is
// built only once an injector is found installed. Flip mode flips one
// deterministic bit of buf in place (the caller's checksum verification
// must catch it); Err and Torn return an injected error. A nil return
// with an unmodified buf means no fault fired.
func OnRead(scope, key string, buf []byte) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	site := scope + ":" + key
	r, h := in.decide(Read, site)
	if r == nil {
		return nil
	}
	if r.Mode == Flip {
		if len(buf) > 0 {
			bit := h % uint64(len(buf)*8)
			buf[bit/8] ^= 1 << (bit % 8)
		}
		return nil
	}
	return fmt.Errorf("%w: read at %s", ErrInjected, site)
}

// OnWrite runs write-site rules for a write of n bytes at the keyed site
// (see OnRead). It returns how many bytes the caller should actually write
// and the error to surface after writing them: (n, nil) when no fault
// fires, (k < n, ErrInjected) for a torn write, (0, ErrInjected) for a
// failed write.
func OnWrite(scope, key string, n int) (int, error) {
	in := active.Load()
	if in == nil {
		return n, nil
	}
	site := scope + ":" + key
	r, h := in.decide(Write, site)
	if r == nil {
		return n, nil
	}
	if r.Mode == Torn && n > 0 {
		return int(h % uint64(n)), fmt.Errorf("%w: torn write at %s", ErrInjected, site)
	}
	return 0, fmt.Errorf("%w: write at %s", ErrInjected, site)
}

// OnSync runs sync-site rules for site.
func OnSync(site string) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	if r, _ := in.decide(Sync, site); r != nil {
		return fmt.Errorf("%w: sync at %s", ErrInjected, site)
	}
	return nil
}

// OnCompact runs compaction-site rules for site.
func OnCompact(site string) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	if r, _ := in.decide(Compact, site); r != nil {
		return fmt.Errorf("%w: compact at %s", ErrInjected, site)
	}
	return nil
}

// Parse decodes a rule list from the VSTORE_FAULTS grammar:
//
//	spec  := rule ("," rule)*
//	rule  := op ["@" scope ("+" scope)*] "=" mode [":" rate]
//	op    := "read" | "write" | "sync" | "compact"
//	mode  := "err" | "torn" | "flip"
//	rate  := float in (0,1]   (default 1)
//
// A site is "<tier>/<shard>:<key>" (e.g. "fast/000:seg/cam/..."), so a
// scope of "fast" arms every fast shard, "fast+:seg/" only segment data
// on fast shards, and "fast/002" one shard. Examples:
//
//	read@fast=err:1            every fast-tier read fails
//	read=flip:0.01             1% of reads come back with one bit flipped
//	write=torn:0.05,sync=err:0.05
func Parse(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		lhs, rhs, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fault: rule %q: want op[@scope]=mode[:rate]", part)
		}
		var r Rule
		opStr, scopeStr, scoped := strings.Cut(lhs, "@")
		switch opStr {
		case "read":
			r.Op = Read
		case "write":
			r.Op = Write
		case "sync":
			r.Op = Sync
		case "compact":
			r.Op = Compact
		default:
			return nil, fmt.Errorf("fault: rule %q: unknown op %q", part, opStr)
		}
		if scoped {
			for _, s := range strings.Split(scopeStr, "+") {
				if s != "" {
					r.Scope = append(r.Scope, s)
				}
			}
		}
		modeStr, rateStr, hasRate := strings.Cut(rhs, ":")
		switch modeStr {
		case "err":
			r.Mode = Err
		case "torn":
			r.Mode = Torn
		case "flip":
			r.Mode = Flip
		default:
			return nil, fmt.Errorf("fault: rule %q: unknown mode %q", part, modeStr)
		}
		r.Rate = 1
		if hasRate {
			rate, err := strconv.ParseFloat(rateStr, 64)
			if err != nil || math.IsNaN(rate) || rate <= 0 || rate > 1 {
				return nil, fmt.Errorf("fault: rule %q: rate must be in (0,1]", part)
			}
			r.Rate = rate
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// FromEnv builds an injector from VSTORE_FAULTS and VSTORE_FAULT_SEED.
// It returns (nil, nil) when VSTORE_FAULTS is unset or empty — the
// production case.
func FromEnv() (*Injector, error) {
	spec := os.Getenv("VSTORE_FAULTS")
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	rules, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	if len(rules) == 0 {
		return nil, nil
	}
	seed := uint64(1)
	if s := os.Getenv("VSTORE_FAULT_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: VSTORE_FAULT_SEED %q: %w", s, err)
		}
		seed = v
	}
	return New(seed, rules), nil
}

// InstallFromEnv is the boot-time wiring: parse the environment and
// install the result (a no-op when VSTORE_FAULTS is unset). It returns
// whether an injector was installed.
func InstallFromEnv() (bool, error) {
	in, err := FromEnv()
	if err != nil {
		return false, err
	}
	if in == nil {
		return false, nil
	}
	Install(in)
	return true, nil
}
