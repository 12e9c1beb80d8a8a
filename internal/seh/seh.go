// Package seh performs the static extraction half of the paper's
// exception-handler pipeline (§IV-C): it parses each loaded module's
// scope-table metadata (the CRX equivalent of the PE .pdata/.xdata sections,
// which 64-bit Windows requires every function to carry), producing the
// inventory of guarded code regions, their handlers and their unique filter
// functions that the symbolic-execution stage then narrows down.
package seh

import (
	"sort"

	"crashresist/internal/bin"
)

// Handler is one guarded code region (scope-table entry) in a module.
type Handler struct {
	Module string
	// Index is the scope-table index within the module.
	Index int
	Entry bin.ScopeEntry
	// FuncName is the symbol of the guarded function, if known.
	FuncName string
}

// IsCatchAll reports whether the handler catches all exception classes.
func (h Handler) IsCatchAll() bool { return h.Entry.IsCatchAll() }

// ModuleInventory is the extraction result for one module.
type ModuleInventory struct {
	Module   string
	Handlers []Handler
	// Filters holds the unique filter-function offsets referenced by the
	// module's handlers, sorted; the catch-all marker is excluded (it is
	// not a function).
	Filters []uint32
	// CatchAllHandlers counts handlers using the catch-all marker.
	CatchAllHandlers int
}

// Extract parses one module's scope table.
func Extract(mod *bin.Module) ModuleInventory {
	inv := ModuleInventory{Module: mod.Image.Name}
	filterSet := make(map[uint32]bool)
	for i, s := range mod.Image.Scopes {
		h := Handler{Module: mod.Image.Name, Index: i, Entry: s}
		if sym, ok := mod.Image.SymbolAt(s.Func); ok {
			h.FuncName = sym.Name
		}
		inv.Handlers = append(inv.Handlers, h)
		if s.IsCatchAll() {
			inv.CatchAllHandlers++
			continue
		}
		filterSet[s.Filter] = true
	}
	inv.Filters = make([]uint32, 0, len(filterSet))
	for f := range filterSet {
		inv.Filters = append(inv.Filters, f)
	}
	sort.Slice(inv.Filters, func(i, j int) bool { return inv.Filters[i] < inv.Filters[j] })
	return inv
}

// Totals aggregates handler/filter counts across inventories.
type Totals struct {
	Modules  int
	Handlers int
	// Filters counts unique filter functions (catch-all excluded).
	Filters int
}

// Total sums the counts over a set of inventories.
func Total(invs []ModuleInventory) Totals {
	var t Totals
	for _, inv := range invs {
		t.Modules++
		t.Handlers += len(inv.Handlers)
		t.Filters += len(inv.Filters)
	}
	return t
}
