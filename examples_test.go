package aanoc

// Examples smoke: every program under examples/ must build and run to
// completion. -cycles shortens the simulations so the whole sweep stays
// test-suite friendly; the programs' structure and
// output shape are exercised exactly as a user would see them.

import (
	"os/exec"
	"strings"
	"testing"
)

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples compile and simulate")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool unavailable: %v", err)
	}
	for _, ex := range []struct {
		dir  string
		want string // a line fragment the output must contain
	}{
		{"quickstart", "GSS+SAGM vs CONV+PFS"},
		{"granularity", "granularity mismatch"},
		{"bluray-priority", "PCT sweep"},
		{"dualdtv-sagm", "SAGM latency gain"},
	} {
		ex := ex
		t.Run(ex.dir, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "./examples/"+ex.dir, "-cycles", "2000")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("example failed: %v\n%s", err, out)
			}
			if !strings.Contains(string(out), ex.want) {
				t.Errorf("output missing %q:\n%s", ex.want, out)
			}
		})
	}
}
