package seh

import (
	"testing"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/vm"
)

func buildModule(t *testing.T) (*vm.Process, *bin.Module) {
	t.Helper()
	b := asm.NewBuilder("sample.dll", bin.KindLibrary)
	// Two guarded functions sharing one filter, one catch-all region, and
	// a second filter used once.
	b.Func("fa").
		Label("a0").Nop().Label("a1").
		Ret().
		Label("a_land").Ret().
		EndFunc()
	b.Func("fb").
		Label("b0").Nop().Label("b1").
		Label("b2").Nop().Label("b3").
		Ret().
		Label("b_land").Ret().
		EndFunc()
	b.Func("filter1").MovRI(isa.R0, 1).Ret().EndFunc()
	b.Func("filter2").MovRI(isa.R0, 0).Ret().EndFunc()
	b.Guard("fa", "a0", "a1", "filter1", "a_land")
	b.Guard("fb", "b0", "b1", "filter1", "b_land")
	b.Guard("fb", "b2", "b3", "filter2", "b_land")
	b.Guard("fb", "b2", "b3", asm.CatchAll, "b_land")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 13})
	mod, err := p.LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	return p, mod
}

func TestExtract(t *testing.T) {
	_, mod := buildModule(t)
	inv := Extract(mod)

	if inv.Module != "sample.dll" {
		t.Errorf("module = %q", inv.Module)
	}
	if len(inv.Handlers) != 4 {
		t.Fatalf("handlers = %d, want 4", len(inv.Handlers))
	}
	if inv.CatchAllHandlers != 1 {
		t.Errorf("catch-all handlers = %d, want 1", inv.CatchAllHandlers)
	}
	// filter1 shared by two handlers, filter2 by one → 2 unique filters.
	if len(inv.Filters) != 2 {
		t.Errorf("unique filters = %d, want 2", len(inv.Filters))
	}
	if inv.Handlers[0].FuncName != "fa" || inv.Handlers[1].FuncName != "fb" {
		t.Errorf("func names = %q %q", inv.Handlers[0].FuncName, inv.Handlers[1].FuncName)
	}
	if !inv.Handlers[3].IsCatchAll() || inv.Handlers[0].IsCatchAll() {
		t.Error("catch-all detection wrong")
	}
}

func TestExtractEmptyModule(t *testing.T) {
	b := asm.NewBuilder("plain.dll", bin.KindLibrary)
	b.Func("f").Ret().EndFunc()
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 13})
	mod, err := p.LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	inv := Extract(mod)
	if len(inv.Handlers) != 0 || len(inv.Filters) != 0 || inv.CatchAllHandlers != 0 {
		t.Errorf("empty module inventory = %+v", inv)
	}
}

func TestInventoryAndTotals(t *testing.T) {
	p, _ := buildModule(t)

	// Load a second module with one guarded region.
	b := asm.NewBuilder("second.dll", bin.KindLibrary)
	b.Func("g").Label("g0").Nop().Label("g1").Ret().EndFunc()
	b.Func("flt").MovRI(isa.R0, 1).Ret().EndFunc()
	b.Guard("g", "g0", "g1", "flt", "g1")
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadImage(img); err != nil {
		t.Fatal(err)
	}

	var invs []ModuleInventory
	for _, m := range p.Modules() {
		invs = append(invs, Extract(m))
	}
	if len(invs) != 2 {
		t.Fatalf("inventories = %d", len(invs))
	}
	tot := Total(invs)
	if tot.Modules != 2 || tot.Handlers != 5 || tot.Filters != 3 {
		t.Errorf("totals = %+v, want {2 5 3}", tot)
	}
}
