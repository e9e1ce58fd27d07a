package fault

import (
	"bytes"
	"errors"
	"testing"
)

// install swaps in an injector for one test and restores the disabled
// state afterwards, so tests never leak faults into each other.
func install(t *testing.T, in *Injector) {
	t.Helper()
	Install(in)
	t.Cleanup(func() { Install(nil) })
}

func TestDisabledIsNoOp(t *testing.T) {
	if Enabled() {
		t.Fatal("injector installed at test start")
	}
	buf := []byte{1, 2, 3}
	want := append([]byte(nil), buf...)
	if err := OnRead("fast/000", "k", buf); err != nil || !bytes.Equal(buf, want) {
		t.Fatalf("OnRead disabled: err=%v buf=%v", err, buf)
	}
	if n, err := OnWrite("fast/000", "k", 10); n != 10 || err != nil {
		t.Fatalf("OnWrite disabled: n=%d err=%v", n, err)
	}
	if err := OnSync("fast/000"); err != nil {
		t.Fatalf("OnSync disabled: %v", err)
	}
	if err := OnCompact("fast/000"); err != nil {
		t.Fatalf("OnCompact disabled: %v", err)
	}
	if Injected() != 0 {
		t.Fatalf("Injected() = %d with no injector", Injected())
	}
}

func TestReadErrAlways(t *testing.T) {
	install(t, New(7, []Rule{{Op: Read, Mode: Err, Rate: 1}}))
	err := OnRead("fast/000", "seg/cam/sf0/00000000", nil)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// Other ops stay clean: the rule arms reads only.
	if n, err := OnWrite("fast/000", "k", 5); n != 5 || err != nil {
		t.Fatalf("write affected by read rule: n=%d err=%v", n, err)
	}
	if err := OnSync("fast/000"); err != nil {
		t.Fatalf("sync affected by read rule: %v", err)
	}
	if Injected() == 0 {
		t.Fatal("no injections counted")
	}
}

func TestScopeFiltering(t *testing.T) {
	install(t, New(1, []Rule{{Op: Read, Scope: []string{"fast", ":seg/"}, Mode: Err, Rate: 1}}))
	if err := OnRead("fast/001", "seg/cam/sf1/00000002", nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("scoped site should fire: %v", err)
	}
	// Cold tier: one scope substring missing.
	if err := OnRead("cold/001", "seg/cam/sf1/00000002", nil); err != nil {
		t.Fatalf("cold site fired: %v", err)
	}
	// Fast tier but a metadata key: the :seg/ substring is missing.
	if err := OnRead("fast/000", "meta/config/3", nil); err != nil {
		t.Fatalf("metadata site fired: %v", err)
	}
}

func TestFlipFlipsExactlyOneBit(t *testing.T) {
	install(t, New(3, []Rule{{Op: Read, Mode: Flip, Rate: 1}}))
	buf := make([]byte, 64)
	orig := append([]byte(nil), buf...)
	if err := OnRead("fast/000", "k", buf); err != nil {
		t.Fatalf("flip returned error: %v", err)
	}
	diffBits := 0
	for i := range buf {
		for b := 0; b < 8; b++ {
			if (buf[i]^orig[i])&(1<<b) != 0 {
				diffBits++
			}
		}
	}
	if diffBits != 1 {
		t.Fatalf("flip changed %d bits, want exactly 1", diffBits)
	}
	// Empty buffer: nothing to flip, no error, no panic.
	if err := OnRead("fast/000", "k", nil); err != nil {
		t.Fatalf("flip on empty buf: %v", err)
	}
}

func TestTornWriteReturnsStrictPrefix(t *testing.T) {
	install(t, New(9, []Rule{{Op: Write, Mode: Torn, Rate: 1}}))
	for i := 0; i < 50; i++ {
		n, err := OnWrite("fast/000", "k", 100)
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("torn write err = %v", err)
		}
		if n < 0 || n >= 100 {
			t.Fatalf("torn write n = %d, want strict prefix of 100", n)
		}
	}
}

func TestWriteErrWritesNothing(t *testing.T) {
	install(t, New(2, []Rule{{Op: Write, Mode: Err, Rate: 1}}))
	n, err := OnWrite("fast/000", "k", 100)
	if n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("write err: n=%d err=%v", n, err)
	}
}

func TestSyncAndCompact(t *testing.T) {
	install(t, New(4, []Rule{
		{Op: Sync, Mode: Err, Rate: 1},
		{Op: Compact, Mode: Err, Rate: 1},
	}))
	if err := OnSync("fast/000"); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync: %v", err)
	}
	if err := OnCompact("cold/002"); !errors.Is(err, ErrInjected) {
		t.Fatalf("compact: %v", err)
	}
}

// TestDeterministicSchedule proves the core contract: the same seed and
// operation order produce the same fault schedule; a different seed
// produces a different one.
func TestDeterministicSchedule(t *testing.T) {
	schedule := func(seed uint64) []bool {
		in := New(seed, []Rule{{Op: Read, Mode: Err, Rate: 0.3}})
		out := make([]bool, 200)
		for i := range out {
			Install(in)
			out[i] = OnRead("fast/000", "k", nil) != nil
		}
		Install(nil)
		return out
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at decision %d", i)
		}
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestRateIsApproximatelyHonoured(t *testing.T) {
	in := New(11, []Rule{{Op: Read, Mode: Err, Rate: 0.25}})
	install(t, in)
	fired := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		if OnRead("fast/000", "k", nil) != nil {
			fired++
		}
	}
	got := float64(fired) / trials
	if got < 0.18 || got > 0.32 {
		t.Fatalf("rate 0.25 fired %.3f of the time", got)
	}
	if in.Injected() != uint64(fired) {
		t.Fatalf("Injected() = %d, fired %d", in.Injected(), fired)
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	install(t, New(5, []Rule{
		{Op: Read, Scope: []string{"fast"}, Mode: Err, Rate: 1},
		{Op: Read, Mode: Flip, Rate: 1},
	}))
	buf := []byte{0}
	if err := OnRead("fast/000", "k", buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("fast read should hit the err rule: %v", err)
	}
	if buf[0] != 0 {
		t.Fatal("err rule also flipped bits")
	}
	if err := OnRead("cold/000", "k", buf); err != nil {
		t.Fatalf("cold read should fall to the flip rule: %v", err)
	}
	if buf[0] == 0 {
		t.Fatal("flip rule did not fire on cold read")
	}
}

func TestParse(t *testing.T) {
	rules, err := Parse("read@fast+:seg/=err:1, write=torn:0.05 ,sync=err,compact@cold=err:0.5,read=flip:0.01")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Op: Read, Scope: []string{"fast", ":seg/"}, Mode: Err, Rate: 1},
		{Op: Write, Mode: Torn, Rate: 0.05},
		{Op: Sync, Mode: Err, Rate: 1},
		{Op: Compact, Scope: []string{"cold"}, Mode: Err, Rate: 0.5},
		{Op: Read, Mode: Flip, Rate: 0.01},
	}
	if len(rules) != len(want) {
		t.Fatalf("parsed %d rules, want %d", len(rules), len(want))
	}
	for i := range want {
		if rules[i].String() != want[i].String() {
			t.Fatalf("rule %d = %v, want %v", i, rules[i], want[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"read",            // no mode
		"jump=err",        // unknown op
		"read=explode",    // unknown mode
		"read=err:2",      // rate out of range
		"read=err:0",      // rate out of range
		"read=err:banana", // unparseable rate
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv("VSTORE_FAULTS", "")
	if in, err := FromEnv(); in != nil || err != nil {
		t.Fatalf("empty env: %v %v", in, err)
	}
	t.Setenv("VSTORE_FAULTS", "read=flip:0.5")
	t.Setenv("VSTORE_FAULT_SEED", "99")
	in, err := FromEnv()
	if err != nil || in == nil {
		t.Fatalf("FromEnv: %v %v", in, err)
	}
	if in.seed != 99 || len(in.Rules()) != 1 {
		t.Fatalf("injector = seed %d rules %v", in.seed, in.Rules())
	}
	t.Setenv("VSTORE_FAULT_SEED", "nope")
	if _, err := FromEnv(); err == nil {
		t.Fatal("bad seed accepted")
	}
	t.Setenv("VSTORE_FAULTS", "read=bogus")
	if _, err := FromEnv(); err == nil {
		t.Fatal("bad spec accepted")
	}
	// InstallFromEnv wires a valid spec globally.
	t.Setenv("VSTORE_FAULTS", "sync=err")
	t.Setenv("VSTORE_FAULT_SEED", "1")
	ok, err := InstallFromEnv()
	if err != nil || !ok || !Enabled() {
		t.Fatalf("InstallFromEnv: ok=%v err=%v enabled=%v", ok, err, Enabled())
	}
	t.Cleanup(func() { Install(nil) })
	if err := OnSync("fast/000"); !errors.Is(err, ErrInjected) {
		t.Fatalf("installed injector inert: %v", err)
	}
}
