package targets

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"crashresist/internal/asm"
	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/kernel"
	"crashresist/internal/vm"
)

// This file is the generative target universe (ROADMAP item 3): seeded
// deterministic generators that synthesize DLLs with randomized
// scope-table shapes/filter idioms and servers with randomized
// syscall/taint profiles, so the hand-built paper corpus becomes the
// *small* setting. Every generated target is a pure function of
// (seed, index): each one draws from a private RNG derived from both, so
// generation parallelizes without any scheduling dependence, and the
// generator can declare the expected analysis outcome alongside the
// image. Generated scale is property-checked against those declarations
// (scale_test.go at the repo root) instead of golden-filed.

// DefaultGenSeed seeds the generated populations selected by the -scale
// knob. Changing it (or any generator emission order) changes every
// generated image byte and therefore every content-addressed cache key;
// the golden-seed digest pin in generate_test.go fails loudly if that
// happens by accident.
const DefaultGenSeed = 7171

// Generated population sizes per scale. Large is ≥10× the paper corpus
// (187 hand-built DLLs, 6 servers), mega is ≥100×.
const (
	GenDLLsLarge = 1870
	GenDLLsMega  = 18700

	GenServersSmall = 4
	GenServersPaper = 6
	GenServersLarge = 60
	GenServersMega  = 600
)

// genServerSalt separates the generated-server RNG stream from the
// generated-DLL stream under the same user seed.
const genServerSalt = 0x5eed5a17

// genRNG derives the private RNG for generated target i — the same
// golden-ratio derivation BuildSysDLLs uses for the hand-built corpus —
// so generation is a pure function of (seed, index) and independent of
// scheduling and of whatever else is being built around it.
func genRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(i)*0x9e3779b9))
}

// genParallel runs fn(0..n-1) over a bounded worker pool. Results must be
// index-addressed by the caller; the pool only distributes indices.
func genParallel(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Generated filter styles. The pure styles reuse the hand-built corpus
// idioms; the impure styles consult module state before classifying the
// exception (symbolic execution still reaches a verdict, but the module
// becomes uncacheable), and the unknown style delegates to a native
// platform API (no verdict at all — §VII-A).
const (
	genFltPureAccept = iota
	genFltImpureAccept
	genFltPureReject
	genFltImpureReject
	genFltUnknown
)

// GenDLLSpec is the generator's declaration of one generated DLL: its
// name plus the exact Tables II/III row the SEH pipeline must rediscover.
// The scale property harness checks conservation against these — every
// generated module appears exactly once, with exactly these counts.
type GenDLLSpec struct {
	Name string
	// Handlers / AVHandlers / OnPath / CatchAll is the expected Table II
	// row; Filters / AVFilters is the expected Table III row, and
	// UnknownFilters the expected §VII-A unresolvable count.
	Handlers   int
	AVHandlers int
	OnPath     int
	CatchAll   int

	Filters        int
	AVFilters      int
	UnknownFilters int

	// Pure reports whether every filter body is self-contained, i.e.
	// whether the module's symex results are persistable to the
	// content-addressed cache. Modules mixing the impure or unknown
	// idioms recompute on every run.
	Pure bool
}

// genDLLShape is the randomized scope-table shape of one generated DLL.
type genDLLShape struct {
	styles   []int // one emitted filter per entry
	catchAll int   // leading catch-all scope entries
	extras   int   // extra handlers re-referencing filters round-robin
}

func drawGenDLLShape(rng *rand.Rand) genDLLShape {
	var sh genDLLShape
	add := func(style, n int) {
		for i := 0; i < n; i++ {
			sh.styles = append(sh.styles, style)
		}
	}
	add(genFltPureAccept, rng.Intn(3))
	if rng.Intn(3) == 0 {
		add(genFltImpureAccept, 1)
	}
	add(genFltPureReject, 1+rng.Intn(3)) // every DLL rejects something
	if rng.Intn(3) == 0 {
		add(genFltImpureReject, 1)
	}
	if rng.Intn(3) == 0 {
		add(genFltUnknown, 1)
	}
	sh.catchAll = rng.Intn(2)
	sh.extras = rng.Intn(3)
	return sh
}

func genFltAccepting(style int) bool {
	return style == genFltPureAccept || style == genFltImpureAccept
}

func genFltPure(style int) bool {
	return style == genFltPureAccept || style == genFltPureReject
}

// GenDLLName names generated DLL i.
func GenDLLName(i int) string { return fmt.Sprintf("gdl%05d.dll", i) }

// buildGenDLL assembles generated DLL i of the seed's universe, returning
// the image, its declared spec, and the browse sites for its on-path
// handlers.
func buildGenDLL(seed int64, i int) (*bin.Image, GenDLLSpec, []SitePlan, error) {
	rng := genRNG(seed, i)
	name := GenDLLName(i)
	b := asm.NewBuilder(name, bin.KindLibrary)
	sh := drawGenDLLShape(rng)

	// Filters. Pure styles reuse the hand-built idiom pool so the
	// in-memory symex cache keeps deduplicating identical bodies.
	for fi, style := range sh.styles {
		fname := fmt.Sprintf("gflt%03d", fi)
		switch style {
		case genFltPureAccept:
			emitAcceptingFilter(b, fname, rng.Intn(5))
		case genFltPureReject:
			emitRejectingFilter(b, fname, rng.Intn(5))
		case genFltImpureAccept:
			emitImpureAcceptingFilter(b, fname)
		case genFltImpureReject:
			emitImpureRejectingFilter(b, fname)
		case genFltUnknown:
			emitUnknownFilter(b, fname)
		}
	}

	// Handler scope order mirrors buildDLL: catch-all entries first, then
	// one handler per filter (so every emitted filter is referenced and
	// the extracted unique-filter count equals the emitted count), then
	// extras round-robin.
	accepting := make([]bool, 0, sh.catchAll+len(sh.styles)+sh.extras)
	filterOf := make([]string, 0, cap(accepting))
	for k := 0; k < sh.catchAll; k++ {
		accepting = append(accepting, true)
		filterOf = append(filterOf, asm.CatchAll)
	}
	for fi, style := range sh.styles {
		accepting = append(accepting, genFltAccepting(style))
		filterOf = append(filterOf, fmt.Sprintf("gflt%03d", fi))
	}
	for e := 0; e < sh.extras; e++ {
		fi := e % len(sh.styles)
		accepting = append(accepting, genFltAccepting(sh.styles[fi]))
		filterOf = append(filterOf, fmt.Sprintf("gflt%03d", fi))
	}

	accTotal := 0
	for _, acc := range accepting {
		if acc {
			accTotal++
		}
	}
	onPath := 0
	if accTotal > 0 {
		onPath = rng.Intn(minInt(accTotal, 2) + 1)
	}

	// Emit handlers in scope order; the first onPath accepting ones get
	// exported browse-site wrappers.
	var sites []SitePlan
	left := onPath
	for k, filter := range filterOf {
		fn := fmt.Sprintf("ggd%03d", k)
		emitGuardedFunc(b, fn, filter)
		if accepting[k] && left > 0 {
			export := fmt.Sprintf("gpath%03d", k)
			emitSiteWrapper(b, export, fn)
			b.Export(export, export)
			sites = append(sites, SitePlan{Module: name, Export: export, Scope: k})
			left--
		}
	}

	b.DataU64("gcfg_flag", 1)
	b.BSS("scratch", 64)
	img, err := b.Build()
	if err != nil {
		return nil, GenDLLSpec{}, nil, fmt.Errorf("gen dll %s: %w", name, err)
	}

	spec := GenDLLSpec{
		Name:     name,
		Handlers: len(filterOf),
		OnPath:   len(sites),
		CatchAll: sh.catchAll,
		Filters:  len(sh.styles),
		Pure:     true,
	}
	for _, acc := range accepting {
		if acc {
			spec.AVHandlers++
		}
	}
	for _, style := range sh.styles {
		if genFltAccepting(style) {
			spec.AVFilters++
		}
		if style == genFltUnknown {
			spec.UnknownFilters++
		}
		if !genFltPure(style) {
			spec.Pure = false
		}
	}
	return img, spec, sites, nil
}

// emitImpureAcceptingFilter writes a filter that consults a module
// configuration flag before testing the exception code. The flag load is
// a concrete out-of-body read: symbolic execution still proves the filter
// accepts access violations (the flag is constant 1), but the analysis is
// position-dependent, so the module's verdicts never enter the persistent
// cache.
func emitImpureAcceptingFilter(b *asm.Builder, name string) {
	yes, no := name+"_y", name+"_n"
	b.Func(name).
		LeaData(isa.R3, "gcfg_flag").
		Load(8, isa.R3, isa.R3, 0).
		CmpRI(isa.R3, 0).
		Jz(no). // handling disabled (never: the flag is 1)
		MovRI(isa.R3, uint64(vm.ExcAccessViolation)).
		CmpRR(isa.R1, isa.R3).
		Jz(yes).
		Label(no).
		MovRI(isa.R0, 0).Ret().
		Label(yes).
		MovRI(isa.R0, 1).Ret().
		EndFunc()
}

// emitImpureRejectingFilter is the impure counterpart that only ever
// accepts divide-by-zero — never access violations.
func emitImpureRejectingFilter(b *asm.Builder, name string) {
	yes, no := name+"_y", name+"_n"
	b.Func(name).
		LeaData(isa.R3, "gcfg_flag").
		Load(8, isa.R3, isa.R3, 0).
		CmpRI(isa.R3, 0).
		Jz(no).
		MovRI(isa.R3, uint64(vm.ExcDivideByZero)).
		CmpRR(isa.R1, isa.R3).
		Jz(yes).
		Label(no).
		MovRI(isa.R0, 0).Ret().
		Label(yes).
		MovRI(isa.R0, 1).Ret().
		EndFunc()
}

// emitUnknownFilter writes the post-security-update idiom: the filter
// delegates the decision to a native platform API, so symbolic execution
// reports it unknown (jscript9's cfg_filter, generalized).
func emitUnknownFilter(b *asm.Builder, name string) {
	b.Func(name).
		CallImport("", "RtlQueryExceptionPolicy").
		Ret().
		EndFunc()
}

// LargeBrowserParams is the paper corpus plus a 10× generated DLL
// population (2,057 modules total). The browse trigger budget is
// unchanged, so workload cost stays flat while extraction, symbolic
// execution and cross-referencing scale with the corpus.
func LargeBrowserParams() BrowserParams {
	p := PaperBrowserParams()
	p.Corpus.GenSeed = DefaultGenSeed
	p.Corpus.GenDLLs = GenDLLsLarge
	return p
}

// MegaBrowserParams is the paper corpus plus a 100× generated DLL
// population (18,887 modules total).
func MegaBrowserParams() BrowserParams {
	p := PaperBrowserParams()
	p.Corpus.GenSeed = DefaultGenSeed
	p.Corpus.GenDLLs = GenDLLsMega
	return p
}

// GenServerProfile is the generator's declaration of one generated
// server: its name, port, and the Table I dispositions the syscall
// pipeline must rediscover for the syscalls its code paths exercise.
// Syscalls not named here are unconstrained (the server may or may not
// reach them).
type GenServerProfile struct {
	Name string
	Port uint64
	// Usable syscalls must classify ⊕ (EFAULT-driven, service intact),
	// Invalid ± (corruption crashes in user mode first), Observed as
	// observed-only (no corruptible pointer).
	Usable   []string
	Invalid  []string
	Observed []string
}

// genServerChoices is the randomized syscall/taint profile of one
// generated server. Every choice maps to a code-path idiom proven by the
// hand-built Table I servers.
type genServerChoices struct {
	port        uint64
	useRecv     bool // recv (cherokee idiom) vs read (lighttpd idiom)
	readLen     int
	respInvalid bool // response via conn pointer (±) vs static buffer
	openInvalid bool // served-file open via user-terminated pointer (±)
	chmodMode   int  // 0 none, 1 static path, 2 via pointer (±)
	unlinkStale bool // startup unlink via scanned pointer (±)
	mkdirCache  bool // static mkdir — observed only
	symlinkConf bool // static symlink — observed only
	requests    int  // suite request count
}

func drawGenServer(rng *rand.Rand) genServerChoices {
	return genServerChoices{
		port:        uint64(8000 + rng.Intn(1000)),
		useRecv:     rng.Intn(2) == 0,
		readLen:     16 * (1 + rng.Intn(4)),
		respInvalid: rng.Intn(2) == 0,
		openInvalid: rng.Intn(2) == 0,
		chmodMode:   rng.Intn(3),
		unlinkStale: rng.Intn(2) == 0,
		mkdirCache:  rng.Intn(2) == 0,
		symlinkConf: rng.Intn(2) == 0,
		requests:    2 + rng.Intn(3),
	}
}

func (c genServerChoices) profile(name string) GenServerProfile {
	p := GenServerProfile{Name: name, Port: c.port}
	reqSys := "read"
	if c.useRecv {
		reqSys = "recv"
	}
	p.Usable = append(p.Usable, reqSys)
	if c.openInvalid {
		p.Invalid = append(p.Invalid, "open")
		if c.useRecv {
			// The served file is read through a static buffer; with the
			// request arriving via recv, that is the only read.
			p.Observed = append(p.Observed, "read")
		}
	}
	if c.respInvalid {
		p.Invalid = append(p.Invalid, "write")
	} else {
		p.Observed = append(p.Observed, "write")
	}
	switch c.chmodMode {
	case 1:
		p.Observed = append(p.Observed, "chmod")
	case 2:
		p.Invalid = append(p.Invalid, "chmod")
	}
	if c.unlinkStale {
		p.Invalid = append(p.Invalid, "unlink")
	}
	if c.mkdirCache {
		p.Observed = append(p.Observed, "mkdir")
	}
	if c.symlinkConf {
		p.Observed = append(p.Observed, "symlink")
	}
	p.Observed = append(p.Observed, "epoll_ctl", "epoll_wait")
	sortStrings(p.Usable)
	sortStrings(p.Invalid)
	sortStrings(p.Observed)
	return p
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// GenServerName names generated server i.
func GenServerName(i int) string { return "gen-" + strconv.Itoa(i) }

// ParseGenServerRef parses a canonical generated-server reference
// ("gen-0", "gen-17", …) into its index.
func ParseGenServerRef(name string) (int, bool) {
	const prefix = "gen-"
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	idx, err := strconv.Atoi(name[len(prefix):])
	if err != nil || idx < 0 || GenServerName(idx) != name {
		return 0, false
	}
	return idx, true
}

// GenServerProfiles returns the declared profiles of generated servers
// 0..n-1 without building the images.
func GenServerProfiles(seed int64, n int) []GenServerProfile {
	out := make([]GenServerProfile, n)
	for i := range out {
		rng := genRNG(seed+genServerSalt, i)
		out[i] = drawGenServer(rng).profile(GenServerName(i))
	}
	return out
}

// GenServer builds generated server index of the seed's universe: a
// single-threaded epoll server assembled from the hand-built servers'
// code-path idioms according to its drawn profile.
func GenServer(seed int64, index int) (*Server, error) {
	if index < 0 {
		return nil, fmt.Errorf("gen server: negative index %d", index)
	}
	rng := genRNG(seed+genServerSalt, index)
	c := drawGenServer(rng)
	name := GenServerName(index)
	b := asm.NewBuilder(name, bin.KindExecutable)

	b.Func("main").Entry("main")
	if c.mkdirCache {
		b.LeaData(isa.R1, "g_cachedir")
		sys(b, kernel.SysMkdir)
	}
	if c.symlinkConf {
		b.LeaData(isa.R1, "g_confpath").LeaData(isa.R2, "g_linkpath")
		sys(b, kernel.SysSymlink)
	}
	switch c.chmodMode {
	case 1:
		b.LeaData(isa.R1, "g_logpath")
		sys(b, kernel.SysChmod)
	case 2:
		// chmod through a writable pointer, NUL-terminating through it
		// first in user mode (cherokee idiom).
		b.LeaData(isa.R10, "g_logpath_ptr").
			Load(8, isa.R1, isa.R10, 0).
			MovRI(isa.R13, 0).
			Store(1, isa.R1, 19, isa.R13)
		sys(b, kernel.SysChmod)
	}
	if c.unlinkStale {
		// Stale-socket cleanup through a writable pointer with a
		// user-mode scan first (lighttpd idiom).
		b.LeaData(isa.R10, "g_sock_path_ptr").
			Load(8, isa.R1, isa.R10, 0).
			Load(1, isa.R11, isa.R1, 0)
		sys(b, kernel.SysUnlink)
	}

	emitListen(b, c.port)
	emitEpollCreate(b)
	emitEpollAdd(b, isa.R6, "ev_scratch")

	b.Label("loop")
	b.MovRR(isa.R1, isa.R9).LeaData(isa.R2, "events").MovRI(isa.R3, 8).MovRI(isa.R4, ^uint64(0))
	sys(b, kernel.SysEpollWait)
	b.MovRR(isa.R11, isa.R0)
	b.CmpRI(isa.R11, 0).Jle("loop")
	b.MovRI(isa.R10, 0)
	b.Label("evloop")
	b.CmpRR(isa.R10, isa.R11).Jge("loop")
	b.LeaData(isa.R12, "events").
		MovRR(isa.R13, isa.R10).
		MulRI(isa.R13, 16).
		AddRR(isa.R12, isa.R13).
		Load(8, isa.R7, isa.R12, 8)
	b.CmpRR(isa.R7, isa.R6).Jnz("client")
	b.MovRR(isa.R1, isa.R6).MovRI(isa.R2, 1) // nonblocking accept
	sys(b, kernel.SysAccept)
	b.MovRR(isa.R7, isa.R0)
	b.CmpRI(isa.R7, 0).Jl("nextev")
	// conn = conn_pool + fd*32 with fresh buffer pointers.
	b.LeaData(isa.R12, "conn_pool").
		MovRR(isa.R13, isa.R7).
		MulRI(isa.R13, 32).
		AddRR(isa.R12, isa.R13)
	b.LeaData(isa.R14, "conn_bufs").
		MovRR(isa.R13, isa.R7).
		MulRI(isa.R13, 64).
		AddRR(isa.R14, isa.R13).
		Store(8, isa.R12, 0, isa.R14)
	b.LeaData(isa.R14, "resp_bufs").
		MovRR(isa.R13, isa.R7).
		MulRI(isa.R13, 64).
		AddRR(isa.R14, isa.R13).
		Store(8, isa.R12, 8, isa.R14)
	emitEpollAdd(b, isa.R7, "ev_scratch")
	b.Jmp("nextev")
	b.Label("client")
	b.Call("serve_conn")
	b.Label("nextev")
	b.AddRI(isa.R10, 1).Jmp("evloop")
	b.EndFunc()

	// serve_conn: fd in R7. One-shot request per readiness event.
	b.Func("serve_conn")
	b.Push(isa.R10).Push(isa.R11)
	b.LeaData(isa.R12, "conn_pool").
		MovRR(isa.R13, isa.R7).
		MulRI(isa.R13, 32).
		AddRR(isa.R12, isa.R13)
	// Request through conn.bufptr — the usable primitive: -EFAULT falls
	// through to the graceful close.
	b.Load(8, isa.R2, isa.R12, 0).
		MovRR(isa.R1, isa.R7).
		MovRI(isa.R3, uint64(c.readLen))
	if c.useRecv {
		b.MovRI(isa.R4, 1)
		sys(b, kernel.SysRecv)
	} else {
		sys(b, kernel.SysRead)
	}
	b.MovRR(isa.R15, isa.R0)
	b.CmpRI(isa.R15, 0).Jg("sc_got")
	b.MovRR(isa.R1, isa.R7)
	sys(b, kernel.SysClose)
	b.Jmp("sc_out")
	b.Label("sc_got")
	if c.openInvalid {
		// Served-file path through doc_path_ptr, NUL-terminated through
		// the pointer in user mode first.
		b.LeaData(isa.R10, "g_doc_path_ptr").
			Load(8, isa.R1, isa.R10, 0).
			MovRI(isa.R13, 0).
			Store(1, isa.R1, 19, isa.R13)
		sys(b, kernel.SysOpen)
		b.MovRR(isa.R14, isa.R0)
		b.CmpRI(isa.R14, 0).Jl("sc_respond")
		b.MovRR(isa.R1, isa.R14).LeaData(isa.R2, "filebuf").MovRI(isa.R3, 64)
		sys(b, kernel.SysRead)
		b.MovRR(isa.R1, isa.R14)
		sys(b, kernel.SysClose)
	}
	b.Label("sc_respond")
	if c.respInvalid {
		// Response through conn.rbufptr (user-mode store first).
		b.Load(8, isa.R2, isa.R12, 8).
			MovRI(isa.R13, 0x0a4b4f). // "OK\n"
			Store(8, isa.R2, 0, isa.R13).
			MovRR(isa.R1, isa.R7).
			MovRI(isa.R3, 16)
	} else {
		// Static response buffer — observed only.
		b.LeaData(isa.R2, "g_resp").
			MovRR(isa.R1, isa.R7).
			MovRI(isa.R3, 16)
	}
	sys(b, kernel.SysWrite)
	b.Label("sc_out")
	b.Pop(isa.R11).Pop(isa.R10)
	b.Ret()
	b.EndFunc()

	b.Data("g_cachedir", []byte("/var/cache/gensrv\x00"))
	b.Data("g_confpath", []byte("/etc/gensrv.conf\x00"))
	b.Data("g_linkpath", []byte("/etc/gensrv.link\x00"))
	b.Data("g_logpath", []byte("/var/log/gensrv.log\x00"))
	b.DataPtr("g_logpath_ptr", "g_logpath")
	b.Data("g_sock_path", []byte("/var/run/gensrv.sock\x00"))
	b.DataPtr("g_sock_path_ptr", "g_sock_path")
	b.Data("g_doc_path", []byte("/var/www/index.html\x00\x00\x00\x00"))
	b.DataPtr("g_doc_path_ptr", "g_doc_path")
	b.Data("g_resp", []byte("OK generated...."))
	b.BSS("ev_scratch", 16)
	b.BSS("events", 8*16)
	b.BSS("filebuf", 64)
	b.BSS("conn_pool", 32*32)
	b.BSS("conn_bufs", 32*64)
	b.BSS("resp_bufs", 32*64)
	b.Export("conn_pool", "conn_pool")

	img, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("gen server %s: %w", name, err)
	}
	port, requests := c.port, c.requests
	return &Server{
		Name:  name,
		Port:  port,
		Image: img,
		Suite: func(env *ServerEnv) error {
			for i := 0; i < requests; i++ {
				env.Request(port, []byte("GET /index.html\n\n"))
			}
			return nil
		},
		ServiceCheck: httpServiceCheck(port),
	}, nil
}

// GenServers builds generated servers 0..n-1 in index order; like the
// DLL corpus, each is derived independently from (seed, index).
func GenServers(seed int64, n int) ([]*Server, error) {
	if n < 0 {
		return nil, fmt.Errorf("gen servers: negative n %d", n)
	}
	out := make([]*Server, n)
	errs := make([]error, n)
	genParallel(n, func(i int) {
		out[i], errs[i] = GenServer(seed, i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
