package main

import (
	"fmt"
	"slices"

	"crashresist"
	"crashresist/internal/targets"
)

// Known answers. Every expectation here comes from outside the code under
// test: the paper's published tables, or the declarations the target
// generators emit alongside each generated image. None is a golden file
// the program produced.

// paperUsable is Table I of the paper: the crash-resistant syscall each
// server exposes.
var paperUsable = map[string][]string{
	"nginx":      {"recv"},
	"cherokee":   {"epoll_wait"},
	"lighttpd":   {"read"},
	"memcached":  {"read"},
	"postgresql": {"epoll_wait"},
}

// paperFalsePositive is the Table I false positive: memcached survives
// the corrupted epoll_wait but stops serving clients.
const (
	paperFPServer  = "memcached"
	paperFPSyscall = "epoll_wait"
)

// paperFunnel is the §V-B API funnel: corpus, with pointer argument,
// crash-resistant, on path, JS-reachable, controllable.
var paperFunnel = [6]int{20672, 11521, 400, 25, 12, 0}

// paperTableIII holds the Table III totals over the 187 hand-built DLLs:
// handlers, filters, AV-accepting filters, AV-guarded handlers.
var paperTableIII = [4]int{6745, 5751, 808, 1797}

const paperModules = 187

// checkServer verifies one syscall report: a Table I server against the
// paper, a generated server against its declared profile (nil for Table
// I servers). Degraded jobs fail the unit.
func checkServer(rep *crashresist.SyscallReport, profile *crashresist.GenServerProfile) error {
	if rep == nil {
		return fmt.Errorf("missing report")
	}
	if len(rep.Degraded) > 0 {
		return fmt.Errorf("%s: %d degraded jobs", rep.Server, len(rep.Degraded))
	}
	if profile != nil {
		if rep.Server != profile.Name {
			return fmt.Errorf("report for %q, want %q", rep.Server, profile.Name)
		}
		for _, c := range []struct {
			names []string
			want  crashresist.SyscallStatus
		}{
			{profile.Usable, crashresist.StatusUsable},
			{profile.Invalid, crashresist.StatusInvalidCandidate},
			{profile.Observed, crashresist.StatusObserved},
		} {
			for _, s := range c.names {
				if got := rep.Status[s]; got != c.want {
					return fmt.Errorf("%s: %s classified %v, generator declared %v", rep.Server, s, got, c.want)
				}
			}
		}
		return nil
	}
	want, ok := paperUsable[rep.Server]
	if !ok {
		return fmt.Errorf("no known answer for server %q", rep.Server)
	}
	if got := rep.Usable(); !slices.Equal(got, want) {
		return fmt.Errorf("%s: usable %v, paper says %v", rep.Server, got, want)
	}
	if rep.Server == paperFPServer {
		if got := rep.Status[paperFPSyscall]; got != crashresist.StatusFalsePositive {
			return fmt.Errorf("%s: %s classified %v, paper says false positive", rep.Server, paperFPSyscall, got)
		}
	}
	return nil
}

// checkFunnel verifies the API funnel against the paper's counts.
func checkFunnel(rep *crashresist.APIFunnelReport) error {
	if rep == nil {
		return fmt.Errorf("missing funnel report")
	}
	if len(rep.Degraded) > 0 {
		return fmt.Errorf("funnel: %d degraded jobs", len(rep.Degraded))
	}
	got := [6]int{rep.Total, rep.WithPointer, rep.CrashResistant, rep.OnPath, rep.JSContext, rep.Controllable}
	if got != paperFunnel {
		return fmt.Errorf("funnel %v, paper says %v", got, paperFunnel)
	}
	return nil
}

// checkSEH verifies an SEH report module by module. The hand-built DLLs
// are one group checked against the paper's Table III totals (the
// generated share subtracted out using the generator's declarations);
// each generated DLL is checked against its own declared row. It returns
// the modules checked and the modules that failed.
func checkSEH(rep *crashresist.SEHReport, plan *targets.CorpusPlan) (units, failed int, err error) {
	units = paperModules + len(plan.Gen)
	if rep == nil {
		return units, units, fmt.Errorf("missing SEH report")
	}
	fail := func(n int, format string, args ...any) {
		failed += n
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	if len(rep.Degraded) > 0 {
		fail(len(rep.Degraded), "seh: %d degraded jobs", len(rep.Degraded))
	}
	if rep.TotalModules != units {
		fail(0, "seh: %d modules, want %d", rep.TotalModules, units)
	}
	gh, gf, gaf, gah, _ := plan.GenTotals()
	hand := [4]int{rep.TotalHandlers - gh, rep.TotalFilters - gf, rep.TotalAVFilters - gaf, rep.TotalAVHandlers - gah}
	if hand != paperTableIII {
		fail(paperModules, "seh: hand-built Table III totals %v, paper says %v", hand, paperTableIII)
	}
	rows := make(map[string]crashresist.ModuleSEH, len(rep.Modules))
	for _, m := range rep.Modules {
		rows[m.Module] = m
	}
	for _, g := range plan.Gen {
		want := crashresist.ModuleSEH{
			Module:   g.Name,
			Handlers: g.Handlers, AVHandlers: g.AVHandlers, OnPath: g.OnPath,
			Filters: g.Filters, AVFilters: g.AVFilters,
			UnknownFilters: g.UnknownFilters, CatchAll: g.CatchAll,
		}
		if row, ok := rows[g.Name]; !ok || row != want {
			fail(1, "seh: module %s measured %+v, generator declared %+v", g.Name, row, want)
		}
	}
	return units, failed, err
}

// tamperResult corrupts one unit of a pass's result in place, the way a
// wrong verdict would look. The --tamper flag applies it before
// verification to show that a corrupted result is counted as a failure.
func tamperResult(res *crashresist.Result) {
	switch {
	case res == nil:
	case len(res.Servers) > 0:
		tamperServer(res.Servers[0])
	case res.Syscall != nil:
		tamperServer(res.Syscall)
	case res.Funnel != nil:
		res.Funnel.CrashResistant++
	case res.SEH != nil:
		res.SEH.TotalAVFilters++
	}
}

// tamperServer demotes the report's usable syscalls to observed-only.
func tamperServer(rep *crashresist.SyscallReport) {
	for name, st := range rep.Status {
		if st == crashresist.StatusUsable {
			rep.Status[name] = crashresist.StatusObserved
		}
	}
}
