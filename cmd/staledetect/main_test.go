package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckWindow(t *testing.T) {
	for _, days := range []int{1, 7, 365, 3650} {
		if err := checkWindow(days); err != nil {
			t.Errorf("checkWindow(%d) = %v, want nil", days, err)
		}
	}
	for _, days := range []int{0, -1, 3651, 1<<32 + 7} {
		if err := checkWindow(days); err == nil {
			t.Errorf("checkWindow(%d) accepted", days)
		}
	}
}

// TestBadWindowFails: the command exits non-zero on an out-of-range
// -window before it reads or trains anything, and prints no alerts.
func TestBadWindowFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs staledetect")
	}
	bin := filepath.Join(t.TempDir(), "staledetect")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building staledetect: %v\n%s", err, out)
	}
	for _, window := range []string{"0", "3651"} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-window", window, "-i", filepath.Join(t.TempDir(), "missing.wcc"))
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err == nil {
			t.Fatalf("-window %s: exit status 0", window)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "bad -window") {
			t.Fatalf("-window %s: stdout %q, stderr %q", window, stdout.String(), stderr.String())
		}
	}
}
