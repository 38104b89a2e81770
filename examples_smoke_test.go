package ptlactive_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestExamplesRun builds and runs every example, asserting the headline
// output each one promises. Skipped in -short mode (go run spawns the
// toolchain).
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples spawn the go toolchain")
	}
	cases := map[string]string{
		"./examples/quickstart":   "IBM doubled",
		"./examples/constraints":  `rejected by "no_crash"`,
		"./examples/validtime":    "definite  trigger fired",
		"./examples/sessions":     "violations detected",
		"./examples/stockmonitor": "run finished",
		"./examples/recovery":     "recovered",
		"./examples/remote":       "server drained cleanly",
		"./examples/cluster":      "cluster drained cleanly",
	}
	for path, want := range cases {
		path, want := path, want
		t.Run(strings.TrimPrefix(path, "./examples/"), func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", path).CombinedOutput()
			if err != nil {
				t.Fatalf("go run %s: %v\n%s", path, err, out)
			}
			if !strings.Contains(string(out), want) {
				t.Fatalf("%s output missing %q:\n%s", path, want, out)
			}
		})
	}
}
