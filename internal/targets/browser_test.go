package targets

import (
	"testing"

	"crashresist/internal/seh"
	"crashresist/internal/trace"
	"crashresist/internal/vm"
)

func TestSysDLLCorpusCounts(t *testing.T) {
	params := SmallCorpusParams()
	images, plan, err := BuildSysDLLs(params)
	if err != nil {
		t.Fatal(err)
	}
	wantDLLs := len(params.Named) + params.FillerDLLs
	if len(images) != wantDLLs {
		t.Fatalf("images = %d, want %d", len(images), wantDLLs)
	}
	h, f, af, ah, p := plan.Totals()
	if h != params.TotalHandlers || f != params.TotalFilters || af != params.TotalAVFilters ||
		ah != params.TotalAVHandlers || p != params.TotalOnPath {
		t.Errorf("plan totals = %d/%d/%d/%d/%d, want %d/%d/%d/%d/%d",
			h, f, af, ah, p,
			params.TotalHandlers, params.TotalFilters, params.TotalAVFilters,
			params.TotalAVHandlers, params.TotalOnPath)
	}

	// Verify the *measured* scope-table population matches the specs.
	proc := vm.NewProcess(vm.Config{Platform: vm.PlatformWindows, Seed: 5})
	proc.API = anyAPIStub{}
	byName := make(map[string]DLLSpec, len(plan.Specs))
	for _, s := range plan.Specs {
		byName[s.Name] = s
	}
	var totalHandlers, totalFilters int
	for _, img := range images {
		mod, err := proc.LoadImage(img)
		if err != nil {
			t.Fatal(err)
		}
		inv := seh.Extract(mod)
		spec := byName[img.Name]
		// Measured filters exclude catch-all; jscript9 carries one
		// extra "unknown" filter already included in its spec.
		if got := len(inv.Handlers); got != spec.Handlers {
			t.Errorf("%s: measured handlers = %d, want %d", img.Name, got, spec.Handlers)
		}
		if got := len(inv.Filters); got != spec.Filters {
			t.Errorf("%s: measured filters = %d, want %d", img.Name, got, spec.Filters)
		}
		totalHandlers += len(inv.Handlers)
		totalFilters += len(inv.Filters)
	}
	if totalHandlers != params.TotalHandlers || totalFilters != params.TotalFilters {
		t.Errorf("measured totals = %d handlers / %d filters, want %d / %d",
			totalHandlers, totalFilters, params.TotalHandlers, params.TotalFilters)
	}
}

// anyAPIStub resolves every import so corpus DLLs load standalone.
type anyAPIStub struct{}

func (anyAPIStub) Resolve(string) (uint32, error) { return 1, nil }

func (anyAPIStub) Call(p *vm.Process, t *vm.Thread, id uint32) *vm.Exception {
	t.SetReg(0, 0)
	return nil
}

func TestPaperCorpusParamsConsistency(t *testing.T) {
	params := PaperCorpusParams()
	specs, err := expandSpecs(params)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 187 {
		t.Errorf("DLL count = %d, want 187", len(specs))
	}
	var h, f, af, ah, p int
	for _, s := range specs {
		h += s.Handlers
		f += s.Filters
		af += s.AVFilters
		ah += s.AVHandlers
		p += s.OnPath
	}
	if h != 6745 || f != 5751 || af != 808 || ah != 1797 || p != 385 {
		t.Errorf("totals = %d/%d/%d/%d/%d, want 6745/5751/808/1797/385", h, f, af, ah, p)
	}
}

func TestIEBrowserBrowse(t *testing.T) {
	br, err := IE(SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	env, err := br.NewEnv(900)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Start(); err != nil {
		t.Fatal(err)
	}

	rec := trace.NewRecorder()
	rec.EnableCoverage()
	rec.Attach(env.Proc)

	if err := env.Browse(); err != nil {
		t.Fatalf("browse: %v (crash=%v)", err, env.Proc.Crash)
	}

	// Every planned site must be covered.
	hits := rec.ScopeHits()
	for _, site := range br.Plan.Sites {
		key := trace.ScopeKey{Module: site.Module, Index: site.Scope}
		if hits[key] == 0 {
			t.Errorf("site %s!%s (scope %d) not covered", site.Module, site.Export, site.Scope)
		}
	}

	// Trigger volume: the sum over planned sites must equal TriggerTotal.
	var total uint64
	siteKeys := make(map[trace.ScopeKey]bool, len(br.Plan.Sites))
	for _, site := range br.Plan.Sites {
		siteKeys[trace.ScopeKey{Module: site.Module, Index: site.Scope}] = true
	}
	for key, n := range hits {
		if siteKeys[key] {
			total += n
		}
	}
	if total != uint64(br.Params.TriggerTotal) {
		t.Errorf("trigger total = %d, want %d", total, br.Params.TriggerTotal)
	}
}

func TestIEMutxProbePrimitive(t *testing.T) {
	// The §VI-A PoC mechanics: overwrite the debug_info pointer, trigger
	// js_run, read the status field.
	br, err := IE(SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	env, err := br.NewEnv(901)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Start(); err != nil {
		t.Fatal(err)
	}
	dbgPtrVA, err := env.ExportVA("jscript9.dll", "critsec")
	if err != nil {
		t.Fatal(err)
	}
	dbgPtrVA += 16 // debug_info field
	engineVA, err := env.ExportVA("jscript9.dll", "script_engine")
	if err != nil {
		t.Fatal(err)
	}

	status := func() uint64 {
		v, err := env.Proc.AS.ReadUint(engineVA+8, 8)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	// Baseline: valid debug_info → no exception, status 0.
	if _, err := env.Call("jscript9.dll", "js_run", 1); err != nil {
		t.Fatal(err)
	}
	if status() != 0 {
		t.Fatalf("baseline status = %d, want 0", status())
	}

	// Probe unmapped: status 1, no crash.
	if err := env.Proc.AS.WriteUint(dbgPtrVA, 8, 0xdead0000-16); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Call("jscript9.dll", "js_run", 1); err != nil {
		t.Fatal(err)
	}
	if status() != 1 {
		t.Errorf("unmapped probe status = %d, want 1", status())
	}
	if env.Proc.State == vm.ProcCrashed {
		t.Fatalf("probe crashed the browser: %v", env.Proc.Crash)
	}

	// Probe mapped: status back to 0.
	scratch, err := env.ExportVA("jscript9.dll", "debug_info")
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Proc.AS.WriteUint(dbgPtrVA, 8, scratch); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Call("jscript9.dll", "js_run", 1); err != nil {
		t.Fatal(err)
	}
	if status() != 0 {
		t.Errorf("mapped probe status = %d, want 0", status())
	}
}

func TestFirefoxWorkerProbeAndVEH(t *testing.T) {
	br, err := Firefox(SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	env, err := br.NewEnv(902)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Start(); err != nil {
		t.Fatal(err)
	}
	if len(env.Proc.VEHandlers()) != 1 {
		t.Fatalf("VEH handlers = %d, want 1 (registered at runtime)", len(env.Proc.VEHandlers()))
	}

	slotVA, err := env.ExportVA("xul.dll", "probe_slot")
	if err != nil {
		t.Fatal(err)
	}
	resultVA, err := env.ExportVA("xul.dll", "probe_result")
	if err != nil {
		t.Fatal(err)
	}

	probe := func(addr uint64) uint64 {
		if err := env.Proc.AS.WriteUint(slotVA, 8, addr); err != nil {
			t.Fatal(err)
		}
		// Give the background worker a chance to act.
		for i := 0; i < 50; i++ {
			env.Proc.Run(10_000)
			v, err := env.Proc.AS.ReadUint(slotVA, 8)
			if err != nil {
				t.Fatal(err)
			}
			if v == 0 {
				break
			}
		}
		res, err := env.Proc.AS.ReadUint(resultVA, 8)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Probe a mapped location holding a known value.
	markerVA := slotVA // probing the slot itself would race; use result
	if err := env.Proc.AS.WriteUint(resultVA, 8, 0); err != nil {
		t.Fatal(err)
	}
	_ = markerVA
	known, err := env.ExportVA("xul.dll", "guard_region")
	if err != nil {
		t.Fatal(err)
	}
	// guard_region start may coincide with the protected page; write a
	// marker right before the aligned page if possible, else use the
	// probe of an unmapped address only.
	if got := probe(0xdead0000); got != ^uint64(0) {
		t.Errorf("unmapped probe result = %#x, want -1", got)
	}
	if env.Proc.State == vm.ProcCrashed {
		t.Fatalf("probe crashed firefox: %v", env.Proc.Crash)
	}
	_ = known

	// asm.js bursts: guard faults are handled by the VEH.
	pre := env.Proc.Stats.Faults
	if _, err := env.Call("xul.dll", "asmjs_run", 5); err != nil {
		t.Fatalf("asmjs_run: %v (crash=%v)", err, env.Proc.Crash)
	}
	burst := env.Proc.Stats.Faults - pre
	if burst != 5 {
		t.Errorf("asm.js burst faults = %d, want 5", burst)
	}
	if env.Proc.State == vm.ProcCrashed {
		t.Fatal("asm.js burst crashed the process")
	}
}
