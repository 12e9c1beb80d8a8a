package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runString drives the whole command and returns stdout, stderr and the
// error.
func runString(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

func TestRunServerText(t *testing.T) {
	out, _, err := runString(t, "-target", "nginx")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "syscall pipeline report for nginx") {
		t.Errorf("missing report header:\n%s", out)
	}
	if !strings.Contains(out, "usable crash-resistant primitives") {
		t.Errorf("missing usable summary:\n%s", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if _, _, err := runString(t, "-target", "nginx", "-pipeline", "seh"); err == nil {
		t.Error("browser pipeline on a server target should fail")
	}
	if _, _, err := runString(t, "-target", "nginx", "-format", "xml"); err == nil {
		t.Error("unknown format should fail")
	}
}

// TestCacheDirSmoke covers the -cache-dir lifecycles: a fresh directory
// populates, a reused directory serves hits, and an unusable path warns
// on stderr while the analysis still succeeds — output identical in all
// three cases.
func TestCacheDirSmoke(t *testing.T) {
	baseline, _, err := runString(t, "-target", "nginx")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	fresh, stderr, err := runString(t, "-target", "nginx", "-cache-dir", dir)
	if err != nil {
		t.Fatalf("fresh cache dir: %v", err)
	}
	if fresh != baseline {
		t.Error("fresh-cache output differs from uncached output")
	}
	if strings.Contains(stderr, "cache disabled") {
		t.Errorf("fresh cache dir warned:\n%s", stderr)
	}
	var entries int
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".cce") {
			entries++
		}
		return nil
	})
	if entries == 0 {
		t.Error("fresh run published no cache entries")
	}

	reused, _, err := runString(t, "-target", "nginx", "-cache-dir", dir)
	if err != nil {
		t.Fatalf("reused cache dir: %v", err)
	}
	if reused != baseline {
		t.Error("warm-cache output differs from uncached output")
	}

	occupied := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(occupied, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	degraded, stderr, err := runString(t, "-target", "nginx", "-cache-dir", filepath.Join(occupied, "cache"))
	if err != nil {
		t.Fatalf("unusable cache dir must degrade, got: %v", err)
	}
	if !strings.Contains(stderr, "cache disabled") {
		t.Errorf("unusable cache dir did not warn:\n%s", stderr)
	}
	if degraded != baseline {
		t.Error("degraded-cache output differs from uncached output")
	}
}

// TestCacheDirBrowserPipelines runs the seh and api pipelines twice
// against one cache dir, asserting byte-identical stdout.
func TestCacheDirBrowserPipelines(t *testing.T) {
	for _, pl := range []string{"seh", "api"} {
		pl := pl
		t.Run(pl, func(t *testing.T) {
			dir := t.TempDir()
			cold, _, err := runString(t, "-target", "ie", "-pipeline", pl, "-cache-dir", dir)
			if err != nil {
				t.Fatal(err)
			}
			warm, _, err := runString(t, "-target", "ie", "-pipeline", pl, "-cache-dir", dir)
			if err != nil {
				t.Fatal(err)
			}
			if warm != cold {
				t.Error("warm run output differs from cold run output")
			}
		})
	}
}

// TestProfileFlag checks -profile replaces the report on stdout with the
// selected rendering, byte-stable across repeated identical runs.
func TestProfileFlag(t *testing.T) {
	folded1, _, err := runString(t, "-target", "ie", "-pipeline", "seh", "-profile", "folded")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(folded1, "unique exception filters") {
		t.Errorf("-profile output still carries the report:\n%.300s", folded1)
	}
	if !strings.Contains(folded1, "symex_steps;seh;symex;iexplore;filter:") {
		t.Errorf("folded output missing symex verdict-class stacks:\n%.300s", folded1)
	}
	folded2, _, err := runString(t, "-target", "ie", "-pipeline", "seh", "-profile", "folded")
	if err != nil {
		t.Fatal(err)
	}
	if folded1 != folded2 {
		t.Error("identical runs produced different folded profiles")
	}

	top, _, err := runString(t, "-target", "ie", "-pipeline", "seh", "-profile", "top")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(top, "== symex_steps: total") {
		t.Errorf("-profile top missing ranked sections:\n%.300s", top)
	}

	if _, _, err := runString(t, "-target", "ie", "-profile", "bogus"); err == nil {
		t.Error("unknown -profile value accepted")
	}
}

// TestCPUProfileLeavesStdoutUnchanged checks that -cpuprofile writes a
// pprof file and that the report bytes stay identical with it on.
func TestCPUProfileLeavesStdoutUnchanged(t *testing.T) {
	baseline, _, err := runString(t, "-target", "nginx")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cpu.out")
	profiled, _, err := runString(t, "-target", "nginx", "-cpuprofile", path)
	if err != nil {
		t.Fatal(err)
	}
	if profiled != baseline {
		t.Error("stdout differs with -cpuprofile on")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// pprof profiles are gzip-compressed protobufs.
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Errorf("-cpuprofile wrote %d bytes that are not a gzip stream", len(data))
	}
	if _, _, err := runString(t, "-target", "nginx", "-cpuprofile", filepath.Join(t.TempDir(), "missing", "cpu.out")); err == nil {
		t.Error("an unwritable -cpuprofile path should fail")
	}
}
