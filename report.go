package crashresist

import (
	"fmt"
	"strings"
)

// TableISyscalls lists Table I's 13 rows in the paper's (alphabetical)
// order. The kernel model exposes two more EFAULT-capable calls (access,
// epoll_ctl) which the full reports include, but the paper's table does not
// row them.
func TableISyscalls() []string {
	return []string{
		"chmod", "connect", "epoll_wait", "mkdir", "open", "read",
		"recv", "recvfrom", "send", "sendmsg", "symlink", "unlink", "write",
	}
}

// FormatTableI renders the Table I matrix from per-server reports.
// Legend: ⊕ usable primitive, ± candidate that crashes on corruption,
// ✗ false positive, · observed without a corruptible pointer, ? candidate
// whose corrupted replay never reached the syscall.
func FormatTableI(reports []*SyscallReport) string {
	var b strings.Builder
	b.WriteString("Table I — syscall probing candidates per server\n")
	fmt.Fprintf(&b, "%-12s", "syscall")
	for _, r := range reports {
		fmt.Fprintf(&b, " %-11s", r.Server)
	}
	b.WriteString("\n")
	for _, sc := range TableISyscalls() {
		fmt.Fprintf(&b, "%-12s", sc)
		for _, r := range reports {
			fmt.Fprintf(&b, " %-11s", r.Status[sc].Mark())
		}
		b.WriteString("\n")
	}
	b.WriteString("legend: ⊕ usable  ± crashes on corruption  ✗ false positive  · observed only\n")
	return b.String()
}

// FormatFunnel renders the §V-B API funnel.
func FormatFunnel(rep *APIFunnelReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "§V-B Windows API funnel (%s)\n", rep.Browser)
	fmt.Fprintf(&b, "  API functions in corpus:        %6d\n", rep.Total)
	fmt.Fprintf(&b, "  with pointer argument:          %6d\n", rep.WithPointer)
	fmt.Fprintf(&b, "  crash-resistant (fuzzed):       %6d\n", rep.CrashResistant)
	fmt.Fprintf(&b, "  on browse execution path:       %6d\n", rep.OnPath)
	fmt.Fprintf(&b, "  reachable from JS context:      %6d\n", rep.JSContext)
	fmt.Fprintf(&b, "  with controllable pointer:      %6d\n", rep.Controllable)
	if len(rep.Classifications) > 0 {
		b.WriteString("  exclusion reasons:\n")
		for _, c := range rep.Classifications {
			fmt.Fprintf(&b, "    %-28s %s\n", c.API, c.Reason)
		}
	}
	return b.String()
}

// FormatTableII renders the guarded-code-location table for the named DLLs.
func FormatTableII(rep *SEHReport, modules []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — guarded code locations (%s run)\n", rep.Browser)
	fmt.Fprintf(&b, "%-16s %10s %10s %10s\n", "DLL", "before SE", "after SE", "on path")
	for _, name := range modules {
		row, ok := rep.Row(name)
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-16s %10d %10d %10d\n", row.Module, row.Handlers, row.AVHandlers, row.OnPath)
	}
	return b.String()
}

// FormatTableIII renders the unique-filter-function table for the named
// DLLs plus the corpus totals.
func FormatTableIII(rep *SEHReport, modules []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III — unique exception filters (%s run)\n", rep.Browser)
	fmt.Fprintf(&b, "%-16s %10s %10s %10s\n", "DLL", "before SE", "after SE", "unknown")
	for _, name := range modules {
		row, ok := rep.Row(name)
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-16s %10d %10d %10d\n", row.Module, row.Filters, row.AVFilters, row.UnknownFilters)
	}
	fmt.Fprintf(&b, "totals: %d modules, %d handlers, %d filter functions, %d accept AV (used by %d handlers)\n",
		rep.TotalModules, rep.TotalHandlers, rep.TotalFilters, rep.TotalAVFilters, rep.TotalAVHandlers)
	fmt.Fprintf(&b, "execution path: %d guarded locations, triggered %d times\n",
		rep.TotalOnPath, rep.TriggerEvents)
	return b.String()
}

// NamedDLLs returns the DLLs Tables II and III report individually, in
// table order.
func NamedDLLs() []string {
	return []string{
		"user32.dll", "kernel32.dll", "msvcrt.dll", "jscript9.dll",
		"rpcrt4.dll", "sechost.dll", "ws2_32.dll", "xmllite.dll",
		"kernelbase.dll", "ntdll.dll",
	}
}
