package cliflags

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestCPUProfile(t *testing.T) {
	var off CPUProfile
	stop, err := off.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Errorf("stop without -cpuprofile: %v", err)
	}

	path := filepath.Join(t.TempDir(), "cpu.out")
	var on CPUProfile
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	on.Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", path}); err != nil {
		t.Fatal(err)
	}
	stop, err = on.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Errorf("second stop: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// pprof profiles are gzip-compressed protobufs.
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Errorf("profile is %d bytes and not a gzip stream", len(data))
	}
}
