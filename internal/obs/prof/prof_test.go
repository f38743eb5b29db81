package prof

import (
	"fmt"
	"io"
	"net/http"
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

// TestHTTPEndpoint: -pprof-http must serve the pprof index while
// running and release the port on stop.
func TestHTTPEndpoint(t *testing.T) {
	c := &Config{HTTPAddr: "127.0.0.1:0"}
	stop, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	if c.ln == nil {
		t.Fatal("no listener after Start")
	}
	addr := c.ln.Addr().String() // ":0" resolved to the bound port
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", addr))
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(body) == 0 {
		t.Error("empty pprof index")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if c.ln != nil {
		t.Error("listener still registered after stop")
	}
}

// TestBadPathFailsEarly: a bad profile path must fail at Start, before
// a potentially long run, not at exit.
func TestBadPathFailsEarly(t *testing.T) {
	c := &Config{CPUProfile: filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof")}
	if _, err := c.Start(); err == nil {
		t.Fatal("Start succeeded with an uncreatable cpuprofile path")
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
