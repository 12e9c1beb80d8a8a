package main

import (
	"context"
	"strings"
	"testing"

	"crashresist"
)

// The verifier self-tests run real pipeline passes at small sizes, then
// check that the untouched result passes and a tampered one fails.

func TestVerifyServersAndTamper(t *testing.T) {
	const nGen = 8
	paper, err := crashresist.Servers()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := crashresist.GenServers(99, nGen)
	if err != nil {
		t.Fatal(err)
	}
	var keep []*crashresist.ServerTarget
	for _, s := range paper {
		if s.Name != "cherokee" { // seconds-long EFAULT loop; covered by the workload
			keep = append(keep, s)
		}
	}
	res, err := crashresist.Run(context.Background(), crashresist.Request{Servers: append(keep, gen...), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	profiles := crashresist.GenServerProfiles(99, nGen)
	for i, rep := range res.Servers {
		var prof *crashresist.GenServerProfile
		if i >= len(keep) {
			prof = &profiles[i-len(keep)]
		}
		if err := checkServer(rep, prof); err != nil {
			t.Errorf("clean report rejected: %v", err)
		}
	}
	// A generated server checked against another server's declaration
	// must fail too.
	if checkServer(res.Servers[len(keep)], &profiles[1]) == nil {
		t.Error("report accepted against the wrong generator declaration")
	}
	tamperResult(res)
	if err := checkServer(res.Servers[0], nil); err == nil {
		t.Errorf("tampered %s report accepted", res.Servers[0].Server)
	}
}

func TestVerifyFalsePositiveIsRequired(t *testing.T) {
	res, err := crashresist.Run(context.Background(), crashresist.Request{Target: "memcached", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkServer(res.Syscall, nil); err != nil {
		t.Fatalf("clean memcached report rejected: %v", err)
	}
	res.Syscall.Status[paperFPSyscall] = crashresist.StatusObserved
	if checkServer(res.Syscall, nil) == nil {
		t.Fatal("memcached report without the paper's false positive accepted")
	}
}

func TestVerifySEHAndTamper(t *testing.T) {
	params := crashresist.PaperBrowserParams()
	params.Corpus.GenSeed, params.Corpus.GenDLLs = 11, 40
	br, err := crashresist.IE(params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := crashresist.Run(context.Background(), crashresist.Request{Browser: br, Pipeline: crashresist.PipelineSEH, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	units, failed, err := checkSEH(res.SEH, br.Plan)
	if units != paperModules+40 || failed != 0 || err != nil {
		t.Fatalf("clean report: %d units, %d failed, %v", units, failed, err)
	}
	// One generated module's row off by one fails that module only.
	for i, m := range res.SEH.Modules {
		if m.Module == br.Plan.Gen[0].Name {
			res.SEH.Modules[i].Handlers++
		}
	}
	if _, failed, _ := checkSEH(res.SEH, br.Plan); failed != 1 {
		t.Fatalf("one corrupted generated row: %d failed, want 1", failed)
	}
	tamperResult(res)
	if _, failed, _ := checkSEH(res.SEH, br.Plan); failed != 1+paperModules {
		t.Fatalf("tampered totals: %d failed, want %d", failed, 1+paperModules)
	}
}

func TestVerifyFunnelAndTamper(t *testing.T) {
	rep := &crashresist.APIFunnelReport{
		Total: paperFunnel[0], WithPointer: paperFunnel[1], CrashResistant: paperFunnel[2],
		OnPath: paperFunnel[3], JSContext: paperFunnel[4], Controllable: paperFunnel[5],
	}
	if err := checkFunnel(rep); err != nil {
		t.Fatalf("paper funnel rejected: %v", err)
	}
	tamperResult(&crashresist.Result{Funnel: rep})
	if checkFunnel(rep) == nil {
		t.Fatal("tampered funnel accepted")
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "api-paper", "--seconds", "0"},
		{"--workload", "api-paper", "--trace", "2"},
	} {
		var out, errw strings.Builder
		if code := run(args, &out, &errw); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want non-zero and no output", args, code, out.String())
		}
	}
}
