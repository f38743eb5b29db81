package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run the real command: with SR32ASM_TEST_ARGS
// set, the test binary is sr32asm with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SR32ASM_TEST_ARGS"); ok {
		os.Args = append([]string{"sr32asm"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestAssembleDisasmRun is the command's smoke test: a three-instruction
// program assembles, disassembles to the words it was written as, and
// boots on the minimal platform, retiring exactly those instructions.
func TestAssembleDisasmRun(t *testing.T) {
	src := filepath.Join(t.TempDir(), "t.s")
	if err := os.WriteFile(src, []byte("_start:\n    addi r1, r0, 5\n    add r2, r1, r1\n    halt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SR32ASM_TEST_ARGS=-disasm -run "+src)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("sr32asm -disasm -run: %v\n%s", err, out)
	}
	for _, want := range []string{
		"assembled 3 words in 1 segments, entry 0x1000",
		"00001000: 08200005  addi r1, r0, 5",
		"00001004: 00410801  add r2, r1, r1",
		"00001008: f8000000  halt",
		"cpus=1", ", 3 instr",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestOverlappingOrgIsAnInputError: two segments laid over each other
// are the user's mistake, reported as one asm: line and exit status 1,
// not as a panic out of the image loader.
func TestOverlappingOrgIsAnInputError(t *testing.T) {
	src := filepath.Join(t.TempDir(), "t.s")
	if err := os.WriteFile(src, []byte(".org 0x1000\n.word 1, 2\n.org 0x1004\n.word 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SR32ASM_TEST_ARGS=-run "+src)
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("sr32asm -run: %v, want exit status 1\n%s", err, out)
	}
	if s := string(out); !strings.Contains(s, "asm: line 4: 0x1004 overlaps the segment at 0x1000") || strings.Contains(s, "goroutine") {
		t.Errorf("output:\n%s", s)
	}
}
