package discover

import (
	"context"
	"testing"

	"crashresist/internal/targets"
)

func TestAPIFunnelIE(t *testing.T) {
	params := targets.SmallBrowserParams()
	br, err := targets.IE(params)
	if err != nil {
		t.Fatal(err)
	}
	a := &APIAnalyzer{Seed: 5151}
	rep, err := a.Analyze(context.Background(), br)
	if err != nil {
		t.Fatal(err)
	}

	// Funnel head: black-box rediscovery of the corpus proportions.
	if rep.Total != params.API.Total {
		t.Errorf("Total = %d, want %d", rep.Total, params.API.Total)
	}
	if rep.WithPointer != params.API.WithPointer {
		t.Errorf("WithPointer = %d, want %d", rep.WithPointer, params.API.WithPointer)
	}
	if rep.CrashResistant != params.API.CrashResistant {
		t.Errorf("CrashResistant = %d, want %d", rep.CrashResistant, params.API.CrashResistant)
	}

	// Funnel middle: exactly the planned on-path and JS-context counts.
	if rep.OnPath != params.OnPathAPIs {
		t.Errorf("OnPath = %d (%v), want %d", rep.OnPath, rep.OnPathAPIs, params.OnPathAPIs)
	}
	if rep.JSContext != params.JSContextAPIs {
		t.Errorf("JSContext = %d (%v), want %d", rep.JSContext, rep.JSContextAPIs, params.JSContextAPIs)
	}

	// Funnel tail: zero controllable, with the right mix of exclusions.
	if rep.Controllable != 0 {
		t.Errorf("Controllable = %d, want 0 (paper's negative result)", rep.Controllable)
	}
	reasons := make(map[ExclusionReason]int)
	for _, cls := range rep.Classifications {
		reasons[cls.Reason]++
	}
	wantShapes := map[ExclusionReason]int{}
	for _, js := range br.JSAPIs {
		switch js.Shape {
		case targets.ShapeStack:
			wantShapes[ReasonStackTransient]++
		case targets.ShapeDerefOutside:
			wantShapes[ReasonDerefOutside]++
		default:
			wantShapes[ReasonVolatile]++
		}
	}
	for reason, want := range wantShapes {
		if reasons[reason] != want {
			t.Errorf("reason %v count = %d, want %d (all: %v)", reason, reasons[reason], want, reasons)
		}
	}
	for _, cls := range rep.Classifications {
		if cls.Detail == "" {
			t.Errorf("%s: empty detail", cls.API)
		}
	}
}

func TestExclusionReasonStrings(t *testing.T) {
	for r := ReasonStackTransient; r <= ReasonUntriggered; r++ {
		if r.String() == "reason?" {
			t.Errorf("reason %d unnamed", r)
		}
	}
}

// TestObserveBrowseTagsJSContext checks the API harvest on the pipeline's
// own browse: every JS-context API is called and tagged as called from the
// scripting context, and every other on-path API is called but never
// tagged.
func TestObserveBrowseTagsJSContext(t *testing.T) {
	br, err := targets.IE(targets.SmallBrowserParams())
	if err != nil {
		t.Fatal(err)
	}
	r := newRun(&Runtime{Seed: 900}, "api", br.Name)
	span := r.col.StartStage("harvest", 0)
	obs, err := r.observeBrowse(br, span)
	span.End()
	if err != nil {
		t.Fatal(err)
	}

	isJS := make(map[string]bool, len(br.JSAPIs))
	for _, js := range br.JSAPIs {
		isJS[js.API] = true
		if !obs.called[js.API] || !obs.fromJS[js.API] {
			t.Errorf("JS API %s: called=%v fromJS=%v, want both", js.API, obs.called[js.API], obs.fromJS[js.API])
		}
	}
	nonJS := 0
	for _, api := range br.PathAPIs {
		if isJS[api] {
			continue
		}
		nonJS++
		if !obs.called[api] {
			t.Errorf("path API %s never called", api)
		}
		if obs.fromJS[api] {
			t.Errorf("non-JS API %s wrongly tagged as JS context", api)
		}
	}
	if len(br.JSAPIs) == 0 || nonJS == 0 {
		t.Fatalf("plan has %d JS and %d non-JS path APIs; both must be non-empty", len(br.JSAPIs), nonJS)
	}
}
