package gopgas

import (
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// smokeArgs shrinks each example to a seconds-scale run. Every
// directory under examples/ must have an entry (nil means "no flags"),
// so adding an example without wiring it into the smoke test fails.
var smokeArgs = map[string][]string{
	"distqueue":  {"-locales", "2", "-events", "300"},
	"diststack":  {"-locales", "2", "-items", "150", "-tasks", "1"},
	"hashmap":    {"-locales", "2", "-ops", "300", "-keys", "64", "-buckets", "16", "-tasks", "1"},
	"quickstart": nil,
	"scenario":   {"-locales", "2", "-tasks", "1", "-ops", "2000"},
	"uafdemo":    {"-iters", "5000"},
	"workqueue":  {"-locales", "2", "-items", "300"},
}

// Every example builds and runs to completion (each example's main
// panics on a correctness or safety violation, so a clean exit is a
// real assertion). Sized to finish in seconds, so it runs in full even
// under -short: CI uses it both as a dedicated fast-fail smoke step
// and again inside the full race-enabled suite.
func TestExamplesBuildAndRun(t *testing.T) {
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) != len(smokeArgs) {
		t.Fatalf("examples/ has %d dirs but smokeArgs covers %d — keep them in sync", len(names), len(smokeArgs))
	}

	binDir := t.TempDir()
	for _, name := range names {
		args, known := smokeArgs[name]
		if !known {
			t.Fatalf("examples/%s has no smokeArgs entry", name)
		}
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(binDir, name)
			build := exec.Command("go", "build", "-o", bin, "./examples/"+name)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build failed: %v\n%s", err, out)
			}
			cmd := exec.Command(bin, args...)
			done := make(chan error, 1)
			var out []byte
			start := time.Now()
			go func() {
				var runErr error
				out, runErr = cmd.CombinedOutput()
				done <- runErr
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("run failed after %v: %v\n%s", time.Since(start), err, out)
				}
			case <-time.After(2 * time.Minute):
				cmd.Process.Kill()
				t.Fatalf("example did not finish within 2m")
			}
		})
	}
}
