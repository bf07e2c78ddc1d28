package serve

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obsv"
	"repro/internal/safety"
	"repro/internal/task"
)

// ServerOptions configures the HTTP front of the pipeline. It has no
// fields: admission is bounded by the pipeline's Options.QueueDepth.
type ServerOptions struct{}

// shedRetryAfter is the Retry-After hint on 503 responses (admission
// full or server draining).
const shedRetryAfter = time.Second

// Server is the HTTP/JSON front of a verdict Pipeline:
//
//	POST /v1/verdict    — analyze one task set, JSON in/out
//	GET  /healthz       — liveness
//	GET  /metrics       — expvar snapshot (obsv registries publish here)
//	GET  /debug/vars    — alias of /metrics
//	GET  /metrics/prom  — the default obsv registry in Prometheus text
//	                      exposition format, for stock scrapers
//
// Overload surfaces as fast failure, never as unbounded queueing: a
// miss beyond the pipeline's admission bound gets 503 with a
// Retry-After. Create with NewServer; Close drains the pipeline.
type Server struct {
	pipe *Pipeline
	mux  *http.ServeMux
}

// NewServer wraps p. The server does not own p's lifecycle unless
// Close is used.
func NewServer(p *Pipeline, _ ServerOptions) *Server {
	s := &Server{pipe: p, mux: http.NewServeMux()}
	s.mux.HandleFunc("/v1/verdict", s.handleVerdict)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/metrics", expvar.Handler())
	s.mux.Handle("/debug/vars", expvar.Handler())
	s.mux.HandleFunc("/metrics/prom", handleProm)
	return s
}

// handleProm renders the default obsv registry in the Prometheus text
// exposition format under the "ftmc" prefix. With metrics disabled
// (nil default registry) the body is empty but the scrape still
// succeeds — absence of series, not scrape failure, signals "off".
func handleProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obsv.Default().WritePrometheus(w, "ftmc")
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close shuts the underlying pipeline down (drains admitted work).
func (s *Server) Close() { s.pipe.Close() }

// wireRequest is the POST /v1/verdict body. The set uses the
// repository's task-file shape ({"tasks":[{"T","C","level","f",...}]},
// times as timeunit strings); options default to the paper's setup
// (kill mode, OS = 1 h, full-WCET assumption).
type wireRequest struct {
	Set      task.Set `json:"set"`
	Mode     string   `json:"mode,omitempty"` // "kill" (default) | "degrade"
	DF       float64  `json:"df,omitempty"`
	OSHours  int      `json:"os_hours,omitempty"`  // default 1, at most maxOSHours
	FullWCET *bool    `json:"full_wcet,omitempty"` // default true
	Test     string   `json:"test,omitempty"`
}

// wireError is every non-200 body.
type wireError struct {
	Error string `json:"error"`
}

// maxBodyBytes bounds /v1/verdict request bodies; paper-scale sets are
// a few KB.
const maxBodyBytes = 1 << 20

// maxOSHours bounds a request's os_hours: 10 h is the longest
// operation duration the paper uses (the FMS study), and the analysis
// cost grows with OS — at 1,000 h one Appendix C set takes up to
// seconds.
const maxOSHours = 10

func (s *Server) handleVerdict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, wireError{Error: "POST only"})
		return
	}
	req, err := decodeRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		serveView.Get().invalid.Inc()
		writeJSON(w, statusOf(err), wireError{Error: err.Error()})
		return
	}
	v, err := s.pipe.Verdict(req)
	if err != nil {
		status := statusOf(err)
		if status == http.StatusServiceUnavailable {
			setRetryAfter(w, shedRetryAfter)
		}
		writeJSON(w, status, wireError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// decodeRequest is the decode-and-validate step of POST /v1/verdict:
// the JSON body, the paper defaults (toRequest), the analysis options
// (keyOf) and the task set (task.NewSet). The body must be exactly one
// JSON object with no unknown top-level field: a misspelled option
// would otherwise be dropped and the paper default analysed in its
// place. Every error it returns wraps ErrInvalid, so a body it rejects
// is answered 400 — or 413 when the decoder's error is the handler's
// body cap (*http.MaxBytesError), which the chain keeps alongside
// ErrInvalid.
func decodeRequest(body io.Reader) (Request, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var in wireRequest
	if err := dec.Decode(&in); err != nil {
		return Request{}, fmt.Errorf("%w: decoding request: %w", ErrInvalid, err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		if err == nil {
			err = errors.New("a second JSON value")
		}
		return Request{}, fmt.Errorf("%w: trailing data after the request object: %w", ErrInvalid, err)
	}
	req, err := in.toRequest()
	if err != nil {
		return Request{}, err
	}
	if _, _, err := keyOf(req); err != nil {
		return Request{}, err
	}
	if _, err := task.NewSet(req.Tasks); err != nil {
		return Request{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return req, nil
}

// statusOf maps a pipeline or decoding error to its HTTP status.
func statusOf(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// toRequest maps the wire form onto a pipeline request, applying the
// paper defaults.
func (in *wireRequest) toRequest() (Request, error) {
	var mode safety.AdaptMode
	switch in.Mode {
	case "", "kill":
		mode = safety.Kill
	case "degrade":
		mode = safety.Degrade
	default:
		return Request{}, fmt.Errorf("%w: unknown mode %q (want \"kill\" or \"degrade\")", ErrInvalid, in.Mode)
	}
	if in.OSHours > maxOSHours {
		return Request{}, fmt.Errorf("%w: os_hours %d exceeds the %d-hour limit", ErrInvalid, in.OSHours, maxOSHours)
	}
	cfg := safety.DefaultConfig()
	if in.OSHours != 0 {
		cfg.OperationHours = in.OSHours
	}
	if in.FullWCET != nil {
		cfg.AssumeFullWCET = *in.FullWCET
	}
	return Request{
		Tasks:  in.Set.Tasks(),
		Safety: cfg,
		Mode:   mode,
		DF:     in.DF,
		Test:   in.Test,
	}, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// setRetryAfter writes the Retry-After header in whole seconds,
// rounding up (a Retry-After of 0 would invite an immediate retry
// storm).
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
