// Package trace implements dynamic instrumentation over the M64 VM — the
// repository's stand-in for DynamoRIO in the paper's pipeline. A Recorder
// observes a process run and produces the artifacts the Windows-side
// analyses consume:
//
//   - guarded-region coverage: which SEH scope-table ranges were actually
//     executed (Table II's "on execution path" column);
//   - exception events with virtual timestamps, feeding the §VII-C
//     fault-rate anomaly detector.
//
// The §V-B API harvest and its JavaScript-context tagging live in the API
// pipeline's tracer (internal/discover), which embeds a Recorder and also
// needs each call's taint provenance.
package trace

import (
	"sort"

	"crashresist/internal/bin"
	"crashresist/internal/isa"
	"crashresist/internal/vm"
)

// ExcEvent is one observed exception.
type ExcEvent struct {
	Clock     uint64
	TID       int
	Code      uint32
	Addr      uint64
	PC        uint64
	Unmapped  bool
	Handled   bool
	HandlerPC uint64
}

// ScopeKey identifies a scope-table entry within a process.
type ScopeKey struct {
	Module string
	Index  int
}

// Recorder implements vm.Tracer. Enable the pieces you need; everything is
// off by default to keep per-instruction overhead down.
type Recorder struct {
	proc *vm.Process

	// Guarded-region coverage.
	coverage  bool
	covIndex  map[*bin.Module]*covModule
	scopeHits map[ScopeKey]uint64
	// lastLo, lastHi and lastMod cache the most recently resolved module
	// for PC locality: its span and its scope index (nil when it has no
	// scope table).
	lastLo, lastHi uint64
	lastMod        *covModule

	// Exception log.
	recordExceptions bool
	exceptions       []ExcEvent
}

type covModule struct {
	mod *bin.Module
	// order holds scope indices sorted by Begin for binary search.
	order []int
}

var _ vm.Tracer = (*Recorder)(nil)

// NewRecorder creates an inactive recorder.
func NewRecorder() *Recorder {
	return &Recorder{scopeHits: make(map[ScopeKey]uint64)}
}

// Attach installs the recorder as the process tracer. Call after all images
// are loaded so coverage indexing sees every module.
func (r *Recorder) Attach(p *vm.Process) {
	r.proc = p
	p.Tracer = r
	r.buildCoverageIndex()
}

// EnableCoverage turns on guarded-region coverage (per-instruction cost).
func (r *Recorder) EnableCoverage() { r.coverage = true }

// EnableExceptionLog turns on exception recording.
func (r *Recorder) EnableExceptionLog() { r.recordExceptions = true }

// ScopeHits returns execution counts per scope-table entry.
func (r *Recorder) ScopeHits() map[ScopeKey]uint64 { return r.scopeHits }

// Exceptions returns the recorded exception events.
func (r *Recorder) Exceptions() []ExcEvent {
	out := make([]ExcEvent, len(r.exceptions))
	copy(out, r.exceptions)
	return out
}

// ResetExceptions clears the exception log (between workload phases).
func (r *Recorder) ResetExceptions() { r.exceptions = nil }

// OnInstruction implements vm.Tracer: guarded-region coverage.
func (r *Recorder) OnInstruction(t *vm.Thread, pc uint64, _ isa.Instruction) {
	if !r.coverage {
		return
	}
	r.recordCoverage(pc)
}

// OnCall implements vm.Tracer.
func (r *Recorder) OnCall(*vm.Thread, uint64, uint64) {}

// OnRet implements vm.Tracer.
func (r *Recorder) OnRet(*vm.Thread, uint64) {}

// OnAPICall implements vm.Tracer.
func (r *Recorder) OnAPICall(*vm.Thread, uint64, uint32) {}

// OnException implements vm.Tracer.
func (r *Recorder) OnException(t *vm.Thread, exc vm.Exception) {
	if !r.recordExceptions {
		return
	}
	r.exceptions = append(r.exceptions, ExcEvent{
		Clock:    r.proc.Clock,
		TID:      t.ID,
		Code:     exc.Code,
		Addr:     exc.Addr,
		PC:       exc.PC,
		Unmapped: exc.Unmapped,
	})
}

// OnExceptionHandled implements vm.Tracer.
func (r *Recorder) OnExceptionHandled(t *vm.Thread, exc vm.Exception, handlerPC uint64) {
	if !r.recordExceptions || len(r.exceptions) == 0 {
		return
	}
	// Mark the most recent matching unhandled event.
	for i := len(r.exceptions) - 1; i >= 0; i-- {
		ev := &r.exceptions[i]
		if ev.TID == t.ID && ev.PC == exc.PC && !ev.Handled {
			ev.Handled = true
			ev.HandlerPC = handlerPC
			return
		}
	}
}

func (r *Recorder) buildCoverageIndex() {
	r.covIndex = make(map[*bin.Module]*covModule)
	r.lastLo, r.lastHi, r.lastMod = 0, 0, nil
	for _, m := range r.proc.Modules() {
		scopes := m.Image.Scopes
		if len(scopes) == 0 {
			continue
		}
		order := make([]int, len(scopes))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return scopes[order[a]].Begin < scopes[order[b]].Begin
		})
		r.covIndex[m] = &covModule{mod: m, order: order}
	}
}

// recordCoverage attributes an executed PC to covering scope entries.
func (r *Recorder) recordCoverage(pc uint64) {
	if len(r.covIndex) == 0 {
		return
	}
	// Check the cached module first (strong PC locality); on a miss the
	// process's address index resolves the module.
	if pc < r.lastLo || pc >= r.lastHi {
		m, ok := r.proc.FindModule(pc)
		if !ok {
			return
		}
		r.lastLo, r.lastHi, r.lastMod = m.Base, m.End(), r.covIndex[m]
	}
	cm := r.lastMod
	if cm == nil {
		return
	}
	scopes := cm.mod.Image.Scopes
	off := cm.mod.OffsetOf(pc)

	// Binary search: first index in order with Begin > off; candidates are
	// before it.
	hi := sort.Search(len(cm.order), func(i int) bool {
		return scopes[cm.order[i]].Begin > off
	})
	for i := hi - 1; i >= 0; i-- {
		s := scopes[cm.order[i]]
		if s.End <= off {
			// Ranges can nest, so keep scanning until begins are
			// far behind; with mostly-disjoint generated scopes a
			// small lookback suffices.
			if hi-i > 8 {
				break
			}
			continue
		}
		r.scopeHits[ScopeKey{Module: cm.mod.Image.Name, Index: cm.order[i]}]++
	}
}

// RatePerSecond computes the peak exception rate over a sliding window of
// the given width (in ticks), using kernel.TicksPerSecond-style scaling by
// the caller. It returns events-per-window maxima. Windows are half-open
// [t, t+window): an event exactly windowTicks after another starts a new
// window rather than joining the old one, matching the kernel's
// Clock/TicksPerSecond fault-bucket convention so detector math and the
// bucketed series agree on edge events.
func RatePerSecond(events []ExcEvent, windowTicks uint64) uint64 {
	if len(events) == 0 || windowTicks == 0 {
		return 0
	}
	var peak uint64
	lo := 0
	for hi := range events {
		for events[hi].Clock-events[lo].Clock >= windowTicks {
			lo++
		}
		if n := uint64(hi - lo + 1); n > peak {
			peak = n
		}
	}
	return peak
}
