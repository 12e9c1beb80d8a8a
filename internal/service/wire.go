// Package service is the discovery-as-a-service layer: a multi-tenant
// HTTP/JSON job API over the unified crashresist.Request/Run surface.
//
// Tenants POST a job (a schema-v1 Request plus a tenant name), receive a
// run ID, and follow the run through its lifecycle: GET the status and
// result, stream the pipeline's live StageEvents over SSE, or list a
// tenant's jobs. Behind the API sits a bounded queue with per-tenant
// round-robin fairness and explicit backpressure (429 + Retry-After when
// full), a worker-token budget shared by all concurrent runs, and a
// bounded retention ring for completed results. See DESIGN.md §11.
package service

import (
	"encoding/json"
	"errors"

	"crashresist"
)

// Schema is the job API's wire-format version, shared with every other
// JSON document the toolkit emits.
const Schema = crashresist.SchemaV1

// DefaultTenant is used when a submission names no tenant.
const DefaultTenant = "default"

// State is a job's lifecycle phase.
type State string

// Job states. Queued and running jobs hold or await budget; the three
// terminal states release it.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Typed errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull rejects a submission once the queue holds MaxQueue
	// jobs; the HTTP layer answers 429 with a Retry-After hint.
	ErrQueueFull = errors.New("job queue full")
	// ErrBadRequest marks an invalid submission (unknown schema, bad
	// target, rejected cache_dir); the HTTP layer answers 400.
	ErrBadRequest = errors.New("bad job request")
	// ErrNotFound marks an unknown or already-evicted job ID.
	ErrNotFound = errors.New("job not found")
	// ErrClosed rejects submissions to a closed service.
	ErrClosed = errors.New("service closed")
)

// JobSpec is the POST /v1/jobs body: a tenant name plus the serializable
// subset of crashresist.Request, flattened into one v1 JSON object.
type JobSpec struct {
	// Schema must be empty or "v1".
	Schema string `json:"schema,omitempty"`
	// Tenant names the submitting tenant (DefaultTenant when empty).
	// Fairness and job listing are scoped by it.
	Tenant string `json:"tenant,omitempty"`

	crashresist.Request
}

// JobView is the API's job representation: the submission echo plus
// lifecycle state, timings, and — once done — the Result envelope.
type JobView struct {
	Schema string `json:"schema"`
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  State  `json:"state"`
	// Pipeline and Target echo the submission (Pipeline may be empty
	// until Run resolves it; the Result carries the resolved value).
	Pipeline string `json:"pipeline,omitempty"`
	Target   string `json:"target,omitempty"`
	// Workers is the job's effective worker-token cost against the
	// service budget.
	Workers int `json:"workers"`
	// SubmittedNS/StartedNS/FinishedNS are wall-clock Unix nanoseconds;
	// zero until the phase is reached.
	SubmittedNS int64 `json:"submitted_ns"`
	StartedNS   int64 `json:"started_ns,omitempty"`
	FinishedNS  int64 `json:"finished_ns,omitempty"`
	// Error is the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// Result is the marshaled crashresist.Result of a done job. List
	// responses omit it; GET /v1/jobs/{id} carries it.
	Result json.RawMessage `json:"result,omitempty"`
	// EventsDropped counts StageEvents discarded past the per-job replay
	// buffer (live SSE subscribers still saw them).
	EventsDropped int `json:"events_dropped,omitempty"`
}

// jobList is the GET /v1/jobs response envelope.
type jobList struct {
	Schema string    `json:"schema"`
	Jobs   []JobView `json:"jobs"`
}

// apiError is the JSON error envelope for non-2xx responses.
type apiError struct {
	Schema string `json:"schema"`
	Error  string `json:"error"`
	// RetryAfterSeconds accompanies 429 responses, mirroring the
	// Retry-After header.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}
