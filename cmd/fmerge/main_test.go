package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestScaleModeWritesProfiles: -scale used to return before the profile
// set-up, so -cpuprofile and -memprofile were silently ignored in the
// one mode used for benchmarking.
func TestScaleModeWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "fmerge")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	cmd := exec.Command(bin, "-scale", "200", "-cpuprofile", cpu, "-memprofile", mem,
		"-scale-out", filepath.Join(dir, "scale.json"))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fmerge -scale 200: %v\n%s", err, out)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil {
			t.Errorf("profile not written: %v", err)
		} else if st.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}
