package targets

import (
	"fmt"
	"math/rand"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/vm"
)

// DLLSpec sizes one system DLL's exception-handling population.
type DLLSpec struct {
	Name string
	// Filters is the number of unique filter functions (Table III,
	// before symbolic execution). Catch-all scope entries are not filter
	// functions and are counted separately.
	Filters int
	// AVFilters of those accept access violations (Table III, after SE).
	AVFilters int
	// CatchAll is the number of guarded locations using the catch-all
	// marker (always accepting, but not filter functions).
	CatchAll int
	// Handlers is the number of guarded code locations (Table II,
	// "before SE"), including the catch-all ones.
	Handlers int
	// AVHandlers of those are guarded by AV-accepting filters or
	// catch-all entries (Table II, "after SE").
	AVHandlers int
	// OnPath of the AV-guarded locations are exercised by the browse
	// workload (Table II, "execution path").
	OnPath int
}

// validate checks internal consistency. Unique filter functions only exist
// through scope-table references, so each side's filter population must fit
// inside its referencing handler population:
//
//	AVHandlers-CatchAll ≥ AVFilters  and  Handlers-AVHandlers ≥ Filters-AVFilters
func (s DLLSpec) validate() error {
	switch {
	case s.AVFilters > s.Filters:
		return fmt.Errorf("%s: AVFilters %d > Filters %d", s.Name, s.AVFilters, s.Filters)
	case s.AVHandlers > s.Handlers:
		return fmt.Errorf("%s: AVHandlers %d > Handlers %d", s.Name, s.AVHandlers, s.Handlers)
	case s.OnPath > s.AVHandlers:
		return fmt.Errorf("%s: OnPath %d > AVHandlers %d", s.Name, s.OnPath, s.AVHandlers)
	case s.CatchAll > s.AVHandlers:
		return fmt.Errorf("%s: CatchAll %d > AVHandlers %d", s.Name, s.CatchAll, s.AVHandlers)
	case s.AVHandlers > s.CatchAll && s.AVFilters == 0:
		return fmt.Errorf("%s: filter-backed AV handlers but no AV filters", s.Name)
	case s.Handlers-s.AVHandlers > 0 && s.Filters-s.AVFilters == 0:
		return fmt.Errorf("%s: rejecting handlers but no rejecting filters", s.Name)
	case s.AVFilters > 0 && s.AVHandlers-s.CatchAll < s.AVFilters:
		return fmt.Errorf("%s: %d AV filters cannot all be referenced by %d filter-backed AV handlers",
			s.Name, s.AVFilters, s.AVHandlers-s.CatchAll)
	case s.Filters-s.AVFilters > s.Handlers-s.AVHandlers:
		return fmt.Errorf("%s: %d rejecting filters cannot all be referenced by %d rejecting handlers",
			s.Name, s.Filters-s.AVFilters, s.Handlers-s.AVHandlers)
	}
	return nil
}

// CorpusParams sizes the whole system-DLL corpus.
type CorpusParams struct {
	Seed int64
	// Named are the DLLs reported individually in Tables II/III.
	Named []DLLSpec
	// FillerDLLs unnamed libraries complete the population.
	FillerDLLs int
	// Totals the corpus must reach across named + filler DLLs.
	TotalHandlers   int
	TotalFilters    int
	TotalAVFilters  int
	TotalAVHandlers int
	TotalOnPath     int

	// Extend lets a browser builder append extra (unguarded) code to a
	// named DLL — e.g. the JS-API wrapper functions in jscript9. Applied
	// after the generic population; must not add scope entries.
	Extend map[string]func(b *asm.Builder)

	// GenDLLs appends that many generated DLLs (generate.go) after the
	// hand-built population, each derived solely from (GenSeed, index) so
	// the generated images are byte-identical to a standalone build of
	// the same indices (the tests' GenDLLCorpus reference). Zero (the paper and small
	// settings) leaves the corpus exactly as before, keeping every golden
	// table byte-identical.
	GenSeed int64
	GenDLLs int
}

// PaperCorpusParams reproduces the paper's population: 187 DLLs, 6,745
// C-specific handlers, 5,751 unique filter functions, 808 surviving
// symbolic execution, used by 1,797 handlers, 385 guarded locations on the
// browse execution path. Per-DLL numbers follow Tables II/III where the
// paper states them; kernelbase/ntdll handler counts and the rpcrt4 filter
// counts are not in the paper and are chosen consistently (see
// EXPERIMENTS.md).
func PaperCorpusParams() CorpusParams {
	return CorpusParams{
		Seed: 424242,
		Named: []DLLSpec{
			{Name: "user32.dll", Filters: 10, AVFilters: 5, Handlers: 70, AVHandlers: 63, OnPath: 40, CatchAll: 2},
			{Name: "kernel32.dll", Filters: 30, AVFilters: 22, Handlers: 76, AVHandlers: 66, OnPath: 14, CatchAll: 3},
			{Name: "msvcrt.dll", Filters: 129, AVFilters: 9, Handlers: 129, AVHandlers: 9, OnPath: 3},
			{Name: "jscript9.dll", Filters: 21, AVFilters: 5, Handlers: 22, AVHandlers: 6, OnPath: 4, CatchAll: 1},
			{Name: "rpcrt4.dll", Filters: 54, AVFilters: 12, Handlers: 62, AVHandlers: 20, OnPath: 6},
			{Name: "sechost.dll", Filters: 126, AVFilters: 4, Handlers: 133, AVHandlers: 11, OnPath: 0},
			{Name: "ws2_32.dll", Filters: 78, AVFilters: 25, Handlers: 82, AVHandlers: 29, OnPath: 10},
			{Name: "xmllite.dll", Filters: 8, AVFilters: 0, Handlers: 10, AVHandlers: 2, OnPath: 1, CatchAll: 2},
			{Name: "kernelbase.dll", Filters: 76, AVFilters: 21, Handlers: 85, AVHandlers: 30, OnPath: 8},
			{Name: "ntdll.dll", Filters: 79, AVFilters: 25, Handlers: 95, AVHandlers: 40, OnPath: 5},
		},
		FillerDLLs:      177,
		TotalHandlers:   6745,
		TotalFilters:    5751,
		TotalAVFilters:  808,
		TotalAVHandlers: 1797,
		TotalOnPath:     385,
	}
}

// SmallCorpusParams is a scaled-down corpus for tests.
func SmallCorpusParams() CorpusParams {
	return CorpusParams{
		Seed: 7,
		Named: []DLLSpec{
			{Name: "user32.dll", Filters: 4, AVFilters: 2, Handlers: 8, AVHandlers: 5, OnPath: 3, CatchAll: 1},
			{Name: "jscript9.dll", Filters: 5, AVFilters: 2, Handlers: 6, AVHandlers: 3, OnPath: 2, CatchAll: 1},
			{Name: "ntdll.dll", Filters: 6, AVFilters: 2, Handlers: 7, AVHandlers: 3, OnPath: 1},
		},
		FillerDLLs:      4,
		TotalHandlers:   45,
		TotalFilters:    39, // named 15 + derived filler 24
		TotalAVFilters:  12,
		TotalAVHandlers: 17,
		TotalOnPath:     8,
	}
}

// SitePlan is one browse-workload call target.
type SitePlan struct {
	Module string
	Export string
	// Scope is the scope-table index of the guarded location the export
	// exercises.
	Scope int
}

// CorpusPlan records what the generator built, for the browse-workload
// generator and for verifying totals.
type CorpusPlan struct {
	Specs []DLLSpec
	Sites []SitePlan
	// Gen holds the declared specs of the generated population (empty
	// unless CorpusParams.GenDLLs > 0). Sites includes the generated
	// on-path sites after the hand-built ones.
	Gen []GenDLLSpec
}

// Totals sums the plan's hand-built populations (generated DLLs are
// declared in Gen and summed by GenTotals).
func (p *CorpusPlan) Totals() (handlers, filters, avFilters, avHandlers, onPath int) {
	for _, s := range p.Specs {
		handlers += s.Handlers
		filters += s.Filters
		avFilters += s.AVFilters
		avHandlers += s.AVHandlers
		onPath += s.OnPath
	}
	return handlers, filters, avFilters, avHandlers, onPath
}

// GenTotals sums the declared generated populations.
func (p *CorpusPlan) GenTotals() (handlers, filters, avFilters, avHandlers, onPath int) {
	for _, s := range p.Gen {
		handlers += s.Handlers
		filters += s.Filters
		avFilters += s.AVFilters
		avHandlers += s.AVHandlers
		onPath += s.OnPath
	}
	return handlers, filters, avFilters, avHandlers, onPath
}

// BuildSysDLLs generates the corpus images plus the plan: the hand-built
// population first, then any generated population (CorpusParams.GenDLLs).
// DLLs are assembled in parallel: each gets a private RNG derived from
// the relevant seed and its index, so the generated bytes are a pure
// function of (params, index) and independent of scheduling; results land
// in index-addressed slices and are concatenated in spec order.
func BuildSysDLLs(params CorpusParams) ([]*bin.Image, *CorpusPlan, error) {
	specs, err := expandSpecs(params)
	if err != nil {
		return nil, nil, err
	}
	if params.GenDLLs < 0 {
		return nil, nil, fmt.Errorf("corpus: negative GenDLLs %d", params.GenDLLs)
	}
	plan := &CorpusPlan{Specs: specs, Gen: make([]GenDLLSpec, params.GenDLLs)}
	total := len(specs) + params.GenDLLs
	images := make([]*bin.Image, total)
	sites := make([][]SitePlan, total)
	errs := make([]error, total)

	genParallel(total, func(i int) {
		if i < len(specs) {
			rng := rand.New(rand.NewSource(params.Seed + int64(i)*0x9e3779b9))
			images[i], sites[i], errs[i] = buildDLL(specs[i], rng, params.Extend[specs[i].Name])
			return
		}
		gi := i - len(specs)
		images[i], plan.Gen[gi], sites[i], errs[i] = buildGenDLL(params.GenSeed, gi)
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	for _, s := range sites {
		plan.Sites = append(plan.Sites, s...)
	}
	return images, plan, nil
}

// expandSpecs appends filler DLL specs so the corpus meets the totals.
func expandSpecs(params CorpusParams) ([]DLLSpec, error) {
	var nH, nF, nAF, nAH, nP int
	for _, s := range params.Named {
		if err := s.validate(); err != nil {
			return nil, err
		}
		nH += s.Handlers
		nF += s.Filters
		nAF += s.AVFilters
		nAH += s.AVHandlers
		nP += s.OnPath
	}
	remH := params.TotalHandlers - nH
	remF := params.TotalFilters - nF
	remAF := params.TotalAVFilters - nAF
	remAH := params.TotalAVHandlers - nAH
	remP := params.TotalOnPath - nP
	n := params.FillerDLLs
	if n < 0 || remH < 0 || remF < 0 || remAF < 0 || remAH < 0 || remP < 0 {
		return nil, fmt.Errorf("corpus totals smaller than named sums")
	}
	specs := append([]DLLSpec(nil), params.Named...)
	if n == 0 {
		if remH != 0 || remF != 0 {
			return nil, fmt.Errorf("no filler DLLs but remainder nonzero")
		}
		return specs, nil
	}
	share := func(total, i int) int {
		base := total / n
		if i < total%n {
			base++
		}
		return base
	}
	// Filler filter counts are *derived*: every rejecting handler
	// references its own rejecting filter and every AV filter is
	// referenced, so F_i = (H_i - AVH_i) + AVF_i. The corpus totals must
	// be consistent with that identity; PaperCorpusParams is tuned so
	// the derived sum lands exactly on TotalFilters.
	sumF := 0
	for i := 0; i < n; i++ {
		s := DLLSpec{
			Name:       fmt.Sprintf("lib%03d.dll", i),
			Handlers:   share(remH, i),
			AVFilters:  share(remAF, i),
			AVHandlers: share(remAH, i),
			OnPath:     share(remP, i),
		}
		s.Filters = (s.Handlers - s.AVHandlers) + s.AVFilters
		sumF += s.Filters
		if err := s.validate(); err != nil {
			return nil, fmt.Errorf("filler: %w", err)
		}
		specs = append(specs, s)
	}
	if sumF != remF {
		return nil, fmt.Errorf("corpus params inconsistent: filler filters derive to %d, need %d", sumF, remF)
	}
	return specs, nil
}

// buildDLL assembles one corpus DLL: filter functions, guarded functions,
// and exported browse entry points. The case-study DLLs (jscript9, ntdll)
// carry hand-written extras; their generic population is reduced so the
// DLL's *measured* totals still equal the spec.
func buildDLL(spec DLLSpec, rng *rand.Rand, extend func(*asm.Builder)) (*bin.Image, []SitePlan, error) {
	b := asm.NewBuilder(spec.Name, bin.KindLibrary)

	gen := spec
	switch spec.Name {
	case "jscript9.dll":
		// Extras: MUTX::Enter (catch-all guarded handler, on the
		// browse path via js_run) and guarded_cfg with the
		// import-calling cfg_filter (a filter function whose verdict
		// is unknown, so it does not count as accepting).
		gen.Handlers -= 2
		gen.AVHandlers--
		gen.CatchAll--
		gen.Filters--
		gen.OnPath--
	case "ntdll.dll":
		// Extra: RtlSafeRead with its accepting exclusion filter (not
		// on the IE browse path).
		gen.Handlers--
		gen.AVHandlers--
		gen.Filters--
		gen.AVFilters--
	}
	if err := gen.validate(); err != nil {
		return nil, nil, fmt.Errorf("sysdll %s: after extras: %w", spec.Name, err)
	}

	// Filter functions: the first AVFilters accept access violations.
	filterLabels := make([]string, gen.Filters)
	for i := 0; i < gen.Filters; i++ {
		name := fmt.Sprintf("flt%03d", i)
		filterLabels[i] = name
		if i < gen.AVFilters {
			emitAcceptingFilter(b, name, rng.Intn(5))
		} else {
			emitRejectingFilter(b, name, rng.Intn(5))
		}
	}

	// Guarded functions. AV-backed ones come first so the on-path subset
	// is well defined; the catch-all quota is drawn from the AV group.
	var sites []SitePlan
	for i := 0; i < gen.Handlers; i++ {
		fn := fmt.Sprintf("grd%03d", i)
		var filter string
		switch {
		case i < gen.CatchAll:
			filter = asm.CatchAll
		case i < gen.AVHandlers:
			filter = filterLabels[(i-gen.CatchAll)%maxInt(gen.AVFilters, 1)]
		default:
			filter = filterLabels[gen.AVFilters+(i-gen.AVHandlers)%maxInt(gen.Filters-gen.AVFilters, 1)]
		}
		emitGuardedFunc(b, fn, filter)
		if i < gen.OnPath {
			export := fmt.Sprintf("path%03d", i)
			emitSiteWrapper(b, export, fn)
			b.Export(export, export)
			sites = append(sites, SitePlan{Module: spec.Name, Export: export, Scope: i})
		}
	}

	// Special population for the case-study DLLs.
	switch spec.Name {
	case "jscript9.dll":
		emitJscript9Extras(b)
		// js_run drives MUTX::Enter, whose guard is the first extra
		// scope entry.
		sites = append(sites, SitePlan{Module: spec.Name, Export: "js_run", Scope: gen.Handlers})
	case "ntdll.dll":
		emitNtdllExtras(b)
	}
	if extend != nil {
		extend(b)
	}

	b.BSS("scratch", 64)
	img, err := b.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("sysdll %s: %w", spec.Name, err)
	}
	return img, sites, nil
}

// emitAcceptingFilter writes a filter that accepts access violations, in
// one of several real-world idioms.
func emitAcceptingFilter(b *asm.Builder, name string, variant int) {
	yes, no := name+"_y", name+"_n"
	b.Func(name)
	switch variant % 5 {
	case 0: // accept everything
		b.MovRI(isa.R0, 1).Ret()
	case 1: // code == ACCESS_VIOLATION
		b.MovRI(isa.R3, uint64(vm.ExcAccessViolation)).
			CmpRR(isa.R1, isa.R3).
			Jz(yes).
			MovRI(isa.R0, 0).Ret().
			Label(yes).MovRI(isa.R0, 1).Ret()
	case 2: // error severity: code >> 30 == 3
		b.MovRR(isa.R3, isa.R1).
			ShrRI(isa.R3, 30).
			CmpRI(isa.R3, 3).
			Jz(yes).
			MovRI(isa.R0, 0).Ret().
			Label(yes).MovRI(isa.R0, 1).Ret()
	case 3: // range 0xC0000000..0xCFFFFFFF
		b.MovRI(isa.R3, 0xC0000000).
			CmpRR(isa.R1, isa.R3).
			Jb(no).
			MovRI(isa.R3, 0xD0000000).
			CmpRR(isa.R1, isa.R3).
			Jae(no).
			MovRI(isa.R0, 1).Ret().
			Label(no).MovRI(isa.R0, 0).Ret()
	default: // broad: everything except divide-by-zero
		b.MovRI(isa.R3, uint64(vm.ExcDivideByZero)).
			CmpRR(isa.R1, isa.R3).
			Jz(no).
			MovRI(isa.R0, 1).Ret().
			Label(no).MovRI(isa.R0, 0).Ret()
	}
	b.EndFunc()
}

// emitRejectingFilter writes a filter that cannot accept access violations.
func emitRejectingFilter(b *asm.Builder, name string, variant int) {
	yes, no := name+"_y", name+"_n"
	b.Func(name)
	switch variant % 5 {
	case 0: // never handle
		b.MovRI(isa.R0, 0).Ret()
	case 1: // only divide-by-zero
		b.MovRI(isa.R3, uint64(vm.ExcDivideByZero)).
			CmpRR(isa.R1, isa.R3).
			Jz(yes).
			MovRI(isa.R0, 0).Ret().
			Label(yes).MovRI(isa.R0, 1).Ret()
	case 2: // only software exceptions 0xE0000000..0xEFFFFFFF
		b.MovRI(isa.R3, 0xE0000000).
			CmpRR(isa.R1, isa.R3).
			Jb(no).
			MovRI(isa.R3, 0xF0000000).
			CmpRR(isa.R1, isa.R3).
			Jae(no).
			MovRI(isa.R0, 1).Ret().
			Label(no).MovRI(isa.R0, 0).Ret()
	case 3: // everything except access violations (the exclusion idiom)
		b.MovRI(isa.R3, uint64(vm.ExcAccessViolation)).
			CmpRR(isa.R1, isa.R3).
			Jz(no).
			MovRI(isa.R0, 1).Ret().
			Label(no).MovRI(isa.R0, 0).Ret()
	default: // only stack overflow
		b.MovRI(isa.R3, uint64(vm.ExcStackOverflow)).
			CmpRR(isa.R1, isa.R3).
			Jz(yes).
			MovRI(isa.R0, 0).Ret().
			Label(yes).MovRI(isa.R0, 1).Ret()
	}
	b.EndFunc()
}

// emitGuardedFunc writes a function whose body dereferences its pointer
// argument (R1) inside a guarded region; the handler returns ^0.
func emitGuardedFunc(b *asm.Builder, name, filter string) {
	try, tryEnd, land := name+"_t", name+"_e", name+"_l"
	b.Func(name).
		Label(try).
		Load(8, isa.R0, isa.R1, 0).
		Label(tryEnd).
		Ret().
		Label(land).
		MovRI(isa.R0, ^uint64(0)).
		Ret().
		EndFunc()
	b.Guard(name, try, tryEnd, filter, land)
}

// emitSiteWrapper writes an exported entry point that calls the guarded
// function count (R1) times with a valid scratch pointer.
func emitSiteWrapper(b *asm.Builder, export, target string) {
	loop := export + "_l"
	b.Func(export).
		MovRR(isa.R3, isa.R1).
		LeaData(isa.R4, "scratch").
		Label(loop).
		MovRR(isa.R1, isa.R4).
		Call(target).
		SubRI(isa.R3, 1).
		TestRR(isa.R3, isa.R3).
		Jnz(loop).
		Ret().
		EndFunc()
}

// emitJscript9Extras adds the script-engine machinery of the IE 11 case
// study (§VI-A): the ScriptEngine object, MUTX::Enter guarded by a
// catch-all scope entry around an EnterCriticalSection-style call whose
// user-mode stub dereferences the debug-information pointer, and the
// post-security-update filter that consults another function (unresolvable
// statically — §VII-A). buildDLL deducts these from the generic population
// so the DLL's measured Table II/III counts match its spec.
func emitJscript9Extras(b *asm.Builder) {
	// ScriptEngine object: +0 critsec pointer, +8 status word. The
	// CRITICAL_SECTION: +16 debug_info pointer. The structures are built
	// from consecutive 8-aligned data symbols (the assembler lays data
	// symbols out contiguously), with load-time relocations wiring the
	// pointers so that normal script execution never faults.
	b.DataPtr("script_engine", "critsec")  // +0: critsec ptr
	b.DataU64("script_engine_status", 0)   // +8: status
	b.Data("critsec", make([]byte, 16))    // +0..15: lock fields
	b.DataPtr("critsec_dbg", "debug_info") // +16: debug_info ptr
	b.BSS("debug_info", 32)

	// mutx_enter: status=0; EnterCriticalSection(critsec.debug_info+16);
	// catch-all handler sets status=1.
	b.Func("mutx_enter").
		LeaData(isa.R10, "script_engine").
		MovRI(isa.R11, 0).
		Store(8, isa.R10, 8, isa.R11). // status = 0
		Load(8, isa.R12, isa.R10, 0).  // critsec ptr
		Load(8, isa.R1, isa.R12, 16).  // debug_info ptr
		AddRI(isa.R1, 16).             // field at +0x10
		Label("mutx_try").
		CallImport("", "RtlpEnterCriticalSection").
		Label("mutx_try_end").
		Ret().
		Label("mutx_land").
		LeaData(isa.R10, "script_engine").
		MovRI(isa.R11, 1).
		Store(8, isa.R10, 8, isa.R11). // status = 1
		Ret().
		EndFunc()
	b.Guard("mutx_enter", "mutx_try", "mutx_try_end", asm.CatchAll, "mutx_land")
	b.Export("mutx_enter", "mutx_enter")
	b.Export("script_engine", "script_engine")
	b.Export("critsec", "critsec")
	b.Export("debug_info", "debug_info")

	// js_run models the engine processing new script R1 times: each
	// evaluation enters the MUTX first (the PoC trigger path).
	b.Func("js_run").
		MovRR(isa.R3, isa.R1).
		Label("jsr_loop").
		Call("mutx_enter").
		SubRI(isa.R3, 1).
		TestRR(isa.R3, isa.R3).
		Jnz("jsr_loop").
		Ret().
		EndFunc()
	b.Export("js_run", "js_run")

	// Post-update variant: the filter asks a helper (through the import
	// table) whether the exception class is enabled — symbolic execution
	// reports it unknown.
	b.Func("cfg_filter").
		CallImport("", "RtlQueryExceptionPolicy").
		Ret().
		EndFunc()
	b.Func("guarded_cfg").
		Label("gc_try").
		Load(8, isa.R0, isa.R1, 0).
		Label("gc_end").
		Ret().
		Label("gc_land").
		MovRI(isa.R0, ^uint64(0)).
		Ret().
		EndFunc()
	b.Guard("guarded_cfg", "gc_try", "gc_end", "cfg_filter", "gc_land")
	b.Export("guarded_cfg", "guarded_cfg")
}

// emitNtdllExtras adds the RtlSafeRead oracle of the Firefox 46 case study
// (§VI-B): a guarded read whose filter excludes a few exception classes but
// accepts access violations.
func emitNtdllExtras(b *asm.Builder) {
	b.Func("rtl_safe_filter").
		MovRI(isa.R3, uint64(vm.ExcDivideByZero)).
		CmpRR(isa.R1, isa.R3).
		Jz("rsf_no").
		MovRI(isa.R3, uint64(vm.ExcIllegalInstruction)).
		CmpRR(isa.R1, isa.R3).
		Jz("rsf_no").
		MovRI(isa.R0, 1).
		Ret().
		Label("rsf_no").
		MovRI(isa.R0, 0).
		Ret().
		EndFunc()
	b.Func("RtlSafeRead").
		Label("rsr_try").
		Load(8, isa.R0, isa.R1, 0).
		Label("rsr_end").
		Ret().
		Label("rsr_land").
		MovRI(isa.R0, ^uint64(0)).
		Ret().
		EndFunc()
	b.Guard("RtlSafeRead", "rsr_try", "rsr_end", "rtl_safe_filter", "rsr_land")
	b.Export("RtlSafeRead", "RtlSafeRead")
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
