package prof

import (
	"os"
	"path/filepath"
	"testing"
)

// TestProfilesWritten: the CPU and heap profiles must exist and be
// non-empty after stop. (pprof gzip output always has content, even
// for an idle profile.)
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	c := &Config{
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
	}
	stop, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to sample.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{c.CPUProfile, c.MemProfile} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s: empty profile", p)
		}
	}
}

// TestBadPathFailsEarly: a bad path for either profile must fail at
// Start, before a potentially long run, not at exit.
func TestBadPathFailsEarly(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "x.pprof")
	for _, c := range []*Config{{CPUProfile: bad}, {MemProfile: bad}} {
		if _, err := c.Start(); err == nil {
			t.Errorf("Start succeeded with an uncreatable path: %+v", *c)
		}
	}
}

// TestNoFlagsNoop: with nothing requested, Start and stop do nothing
// and error on nothing.
func TestNoFlagsNoop(t *testing.T) {
	c := &Config{}
	stop, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
