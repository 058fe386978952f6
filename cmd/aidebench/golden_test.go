package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// goldenExperiments are the seeded, simclock-paced experiments whose
// output is the paper-facing fixed point: refactors of the polling,
// storage and diff layers must leave it byte-identical.
var goldenExperiments = []string{"table1", "fig1", "fig2", "storage", "polling", "serverside", "cache", "errors"}

// goldenArtifacts are the HTML figures those experiments write.
var goldenArtifacts = []string{"fig1_report.html", "fig2_htmldiff.html", "fig2_reverse.html", "fig2_onlynew.html"}

// wallTimeLine matches the cache experiment's one wall-clock
// measurement, the only nondeterministic line of the golden set.
var wallTimeLine = regexp.MustCompile(`(?m)^(\s*total wall time ).*$`)

// TestGoldenOutputs compares each golden experiment's stdout and HTML
// artifacts with testdata/*.golden. Run with -update to regenerate.
func TestGoldenOutputs(t *testing.T) {
	out := t.TempDir()
	for _, name := range goldenExperiments {
		run := findExperiment(t, name)
		stdout := captureStdout(t, func() {
			if err := run(context.Background(), out); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		})
		stdout = strings.ReplaceAll(stdout, out, "OUT")
		stdout = wallTimeLine.ReplaceAllString(stdout, "${1}<masked>")
		checkGolden(t, name+".golden", stdout)
	}
	for _, artifact := range goldenArtifacts {
		data, err := os.ReadFile(filepath.Join(out, artifact))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, artifact+".golden", string(data))
	}
}

func findExperiment(t *testing.T, name string) func(context.Context, string) error {
	t.Helper()
	for _, e := range experiments {
		if e.name == name {
			return e.run
		}
	}
	t.Fatalf("no experiment %q", name)
	return nil
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	defer func() {
		os.Stdout = saved
	}()
	fn()
	w.Close()
	b := <-done
	r.Close()
	return string(b)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Errorf("%s differs from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
