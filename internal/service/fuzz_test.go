package service

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzJobSpec feeds arbitrary bytes through the submit edge: the same
// size-bounded, unknown-field-rejecting decode as POST /v1/jobs, then
// Submit on a service whose runner does no analysis. Neither step may
// panic, and every spec Submit accepts must pass Request.Validate.
// Wired into `make fuzz-short`.
func FuzzJobSpec(f *testing.F) {
	// The CI service job's submission.
	f.Add([]byte(`{"schema":"v1","tenant":"ci","pipeline":"seh","target":"ie","scale":"paper","seed":42}`))
	// A body past maxSubmitBytes, refused before Submit.
	f.Add([]byte(`{"target":"nginx","tenant":"` + strings.Repeat("a", maxSubmitBytes) + `"}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			return
		}
		s := New(Config{Budget: 1, Runner: instantRunner})
		defer s.Close()
		if _, err := s.Submit(spec); err != nil {
			return
		}
		if err := spec.Request.Validate(); err != nil {
			t.Fatalf("Submit accepted a spec that fails Validate: %v\nbody: %q", err, body)
		}
	})
}
