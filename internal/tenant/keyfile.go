// The tenants key file: the operator-facing source of API keys and
// quotas, loaded by `vstore api -tenants FILE`. One line per key:
//
//	# comment
//	<api-key> <tenant> [weight=W] [inflight=N] [queue=N] [rate=R] [burst=B] [bytes_per_sec=B]
//
// Several keys may name the same tenant (they share its quota and fair
// share). A line for the reserved tenant "default" sets the keyless
// quota; its key column still names a usable key. Quota attributes are
// merged into the tenant's persisted core.TenantQuota — the last line
// mentioning an attribute wins.

package tenant

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
)

// KeyFile is one parsed tenants file.
type KeyFile struct {
	// Keys maps API key -> tenant name.
	Keys map[string]string
	// Quotas holds one entry per tenant mentioned, in first-mention
	// order, with any attributes the file set.
	Quotas []core.TenantQuota
}

// LoadKeyFile reads and parses a tenants file.
func LoadKeyFile(path string) (KeyFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return KeyFile{}, fmt.Errorf("tenant: %w", err)
	}
	defer f.Close()
	kf := KeyFile{Keys: map[string]string{}}
	idx := map[string]int{} // tenant name -> Quotas index
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return KeyFile{}, fmt.Errorf("tenant: %s:%d: want \"<key> <tenant> [attr=value...]\", got %q", path, lineNo, line)
		}
		key, name := fields[0], fields[1]
		if prev, dup := kf.Keys[key]; dup && prev != name {
			return KeyFile{}, fmt.Errorf("tenant: %s:%d: key %q already mapped to tenant %q", path, lineNo, key, prev)
		}
		kf.Keys[key] = name
		i, ok := idx[name]
		if !ok {
			i = len(kf.Quotas)
			idx[name] = i
			kf.Quotas = append(kf.Quotas, core.TenantQuota{Name: name})
		}
		q := &kf.Quotas[i]
		for _, attr := range fields[2:] {
			k, v, found := strings.Cut(attr, "=")
			if !found {
				return KeyFile{}, fmt.Errorf("tenant: %s:%d: bad attribute %q (want key=value)", path, lineNo, attr)
			}
			if err := setQuotaAttr(q, k, v); err != nil {
				return KeyFile{}, fmt.Errorf("tenant: %s:%d: %w", path, lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return KeyFile{}, fmt.Errorf("tenant: %s: %w", path, err)
	}
	return kf, nil
}

func setQuotaAttr(q *core.TenantQuota, k, v string) error {
	atoi := func() (int, error) {
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("bad %s value %q", k, v)
		}
		return n, nil
	}
	var err error
	switch k {
	case "weight":
		q.Weight, err = atoi()
	case "inflight":
		q.MaxInFlight, err = atoi()
	case "queue":
		q.MaxQueue, err = atoi()
	case "burst":
		q.Burst, err = atoi()
	case "rate":
		// ParseFloat accepts NaN and Inf, which the saved configuration's
		// JSON cannot carry.
		q.RatePerSec, err = strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(q.RatePerSec) || math.IsInf(q.RatePerSec, 0) {
			err = fmt.Errorf("bad rate value %q", v)
		}
	case "bytes_per_sec":
		q.BytesPerSec, err = strconv.ParseInt(v, 10, 64)
		if err != nil {
			err = fmt.Errorf("bad bytes_per_sec value %q", v)
		}
	default:
		err = fmt.Errorf("unknown attribute %q", k)
	}
	return err
}

// MergeQuotas layers file-specified quotas over persisted ones: entries
// with the same tenant name are replaced by the file's version (the file
// is the operator's current intent), unmentioned persisted tenants are
// kept, and new tenants append in file order. The result is what gets
// persisted back into core.Runtime.Tenants.
func MergeQuotas(persisted, file []core.TenantQuota) []core.TenantQuota {
	out := make([]core.TenantQuota, 0, len(persisted)+len(file))
	fromFile := map[string]core.TenantQuota{}
	for _, q := range file {
		fromFile[q.Name] = q
	}
	seen := map[string]bool{}
	for _, q := range persisted {
		if fq, ok := fromFile[q.Name]; ok {
			q = fq
		}
		if !seen[q.Name] {
			out = append(out, q)
			seen[q.Name] = true
		}
	}
	for _, q := range file {
		if !seen[q.Name] {
			out = append(out, q)
			seen[q.Name] = true
		}
	}
	return out
}
