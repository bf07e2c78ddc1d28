package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/safety"
	"repro/internal/task"
)

// postVerdict marshals a wire request for ts and POSTs it.
func postVerdict(t *testing.T, client *http.Client, url string, ts []task.Task, extra map[string]any) *http.Response {
	t.Helper()
	s, err := task.NewSet(append([]task.Task(nil), ts...))
	if err != nil {
		t.Fatal(err)
	}
	body := map[string]any{"set": s}
	for k, v := range extra {
		body[k] = v
	}
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/verdict", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeVerdict(t *testing.T, resp *http.Response) Verdict {
	t.Helper()
	defer resp.Body.Close()
	var v Verdict
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestServerVerdictHTTP: the HTTP round trip returns exactly the
// direct-path verdict (floats survive the JSON round trip bit-exactly),
// and a resubmission is served from the cache.
func TestServerVerdictHTTP(t *testing.T) {
	p := NewPipeline(Options{})
	srv := httptest.NewServer(NewServer(p, ServerOptions{}))
	defer srv.Close()
	defer p.Close()

	tasksets := serveCorpus(t, 61, 4)
	for i, ts := range tasksets {
		want := directVerdict(t, Request{Tasks: ts, Safety: safety.DefaultConfig(), Mode: safety.Kill})
		resp := postVerdict(t, srv.Client(), srv.URL, ts, nil)
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("set %d: status %d: %s", i, resp.StatusCode, b)
		}
		got := decodeVerdict(t, resp)
		if !sameVerdict(got, want) {
			t.Fatalf("set %d: HTTP verdict diverged\n got %+v\nwant %+v", i, got, want)
		}
		again := decodeVerdict(t, postVerdict(t, srv.Client(), srv.URL, ts, nil))
		if !again.Cached {
			t.Fatalf("set %d: resubmission missed the cache", i)
		}
		if !sameVerdict(again, want) {
			t.Fatalf("set %d: cached HTTP verdict diverged", i)
		}
	}

	// Degrade mode over the wire.
	ts := tasksets[0]
	wantD := directVerdict(t, Request{Tasks: ts, Safety: safety.DefaultConfig(), Mode: safety.Degrade, DF: 1.3})
	resp := postVerdict(t, srv.Client(), srv.URL, ts, map[string]any{"mode": "degrade", "df": 1.3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degrade: status %d", resp.StatusCode)
	}
	if got := decodeVerdict(t, resp); !sameVerdict(got, wantD) {
		t.Fatalf("degrade verdict diverged\n got %+v\nwant %+v", got, wantD)
	}

	// Liveness.
	hresp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d", hresp.StatusCode)
	}
}

// TestServerBadRequests: malformed traffic maps to 405/400, never 5xx.
func TestServerBadRequests(t *testing.T) {
	p := NewPipeline(Options{})
	srv := httptest.NewServer(NewServer(p, ServerOptions{}))
	defer srv.Close()
	defer p.Close()
	ts := serveCorpus(t, 67, 1)[0]

	if resp, err := srv.Client().Get(srv.URL + "/v1/verdict"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET verdict: status %d, want 405", resp.StatusCode)
		}
	}
	s, err := task.NewSet(append([]task.Task(nil), ts...))
	if err != nil {
		t.Fatal(err)
	}
	set, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	// A body is one JSON object and nothing after it: a second value or
	// trailing bytes would otherwise be ignored, and the verdict would
	// not be for the options the client sent. Likewise an unknown field
	// in the set or in a task: a task spelling its deadline "Deadline"
	// would be analysed with D = T.
	for i, body := range []string{
		"{not json",
		`{"set":` + string(set) + `} {"os_hours":999}`,
		`{"set":` + string(set) + `}garbage`,
		`{"set":{"tasks":[{"name":"a","T":"100ms","Deadline":"50ms","C":"10ms","level":"B","f":1e-5},` +
			`{"name":"b","T":"200ms","C":"20ms","level":"D","f":1e-5}]}}`,
		`{"set":{"tasks":[{"name":"a","T":"100ms","C":"10ms","level":"B","f":1e-5},` +
			`{"name":"b","T":"200ms","C":"20ms","level":"D","f":1e-5}],"mode":"degrade"}}`,
	} {
		resp, err := srv.Client().Post(srv.URL+"/v1/verdict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %d (%.40q…): status %d, want 400", i, body, resp.StatusCode)
		}
	}
	// An unknown field is refused, so a misspelled option cannot fall
	// back to the paper default.
	for i, extra := range []map[string]any{
		{"mode": "panic"},
		{"mode": "degrade", "df": 1.0},
		{"test": "no-such-test"},
		{"os_hours": -3},
		{"os_hour": 10},
		{"full_wcett": false},
	} {
		resp := postVerdict(t, srv.Client(), srv.URL, ts, extra)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad request %d (%v): status %d, want 400", i, extra, resp.StatusCode)
		}
	}
	// A body without "set", or with an empty one, has no tasks to
	// analyse.
	for _, body := range []string{`{}`, `{"mode":"degrade","df":2}`, `{"set":{"tasks":[]}}`} {
		resp, err := srv.Client().Post(srv.URL+"/v1/verdict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e wireError
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(e.Error, "empty task set") {
			t.Fatalf("body %s: status %d, error %q (%v); want 400 naming the empty task set", body, resp.StatusCode, e.Error, err)
		}
	}
}

// TestServerBodyTooLarge: a body one byte over maxBodyBytes is a 413
// with a JSON error, so a client can tell an oversized body from a
// malformed one (400).
func TestServerBodyTooLarge(t *testing.T) {
	p := NewPipeline(Options{})
	srv := httptest.NewServer(NewServer(p, ServerOptions{}))
	defer srv.Close()
	defer p.Close()
	// A JSON string that never closes: the decoder reads on until the
	// cap cuts it off.
	body := `{"set":"` + strings.Repeat("x", maxBodyBytes+1-len(`{"set":"`))
	resp, err := srv.Client().Post(srv.URL+"/v1/verdict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var e wireError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("413 body: %+v, %v; want a JSON error", e, err)
	}
}

// TestServerOSHoursBound: os_hours above maxOSHours is a 400 — both a
// merely long horizon, whose analysis would run for minutes, and one
// that wraps the int64 microsecond horizon negative — while the bound
// itself is still served.
func TestServerOSHoursBound(t *testing.T) {
	p := NewPipeline(Options{})
	srv := httptest.NewServer(NewServer(p, ServerOptions{}))
	defer srv.Close()
	defer p.Close()
	ts := serveCorpus(t, 67, 1)[0]
	for _, tc := range []struct {
		hours int
		want  int
	}{
		{maxOSHours, http.StatusOK},
		{maxOSHours + 1, http.StatusBadRequest},
		{2_562_047_789, http.StatusBadRequest},
	} {
		resp := postVerdict(t, srv.Client(), srv.URL, ts, map[string]any{"os_hours": tc.hours})
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("os_hours %d: status %d, want %d", tc.hours, resp.StatusCode, tc.want)
		}
	}
}

// TestServerDemandIntervalUlp posts a set whose converted utilization
// 1/2 + 1/3 + 1/6 sums to one ulp below 1 under the arbitrary-deadline
// EDF test. FT-S converts every task to C = 1 ms, which makes the set
// infeasible, and the demand test's testing interval passes 10^18 µs.
// Unbounded, enumerating it exhausted memory and killed the server;
// the verdict must be a prompt FAILURE.
func TestServerDemandIntervalUlp(t *testing.T) {
	p := NewPipeline(Options{})
	srv := httptest.NewServer(NewServer(p, ServerOptions{}))
	defer srv.Close()
	defer p.Close()
	body := `{"test":"edf","set":{"tasks":[` +
		`{"T":"2ms","D":"1ms","C":"500us","level":"B","f":1e-9},` +
		`{"T":"3ms","D":"2ms","C":"500us","level":"C","f":1e-9},` +
		`{"T":"6ms","D":"5ms","C":"500us","level":"C","f":1e-9}]}}`
	resp, err := srv.Client().Post(srv.URL+"/v1/verdict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if v := decodeVerdict(t, resp); v.OK {
		t.Fatalf("verdict %+v: an infeasible set was certified", v)
	}
}

// TestServerOverload: with the pipeline's admission bound reached,
// verdict requests fail fast with 503 + Retry-After (no queueing), the
// admitted request still completes with the exact verdict once a slot
// frees, and the server leaks no goroutines. The test holds every
// analysis slot, so saturation is constructed, not raced — see
// TestPipelineShedsWhenQueueFull.
func TestServerOverload(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := NewPipeline(Options{CacheEntries: 64, QueueDepth: 1})
	srv := httptest.NewServer(NewServer(p, ServerOptions{}))
	tasksets := serveCorpus(t, 73, 4)
	want := directVerdict(t, Request{Tasks: tasksets[0], Safety: safety.DefaultConfig(), Mode: safety.Kill})

	release := holdSlots(p)
	defer release()
	admitted := make(chan Verdict, 1)
	go func() {
		resp := postVerdict(t, srv.Client(), srv.URL, tasksets[0], nil)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("admitted request: status %d", resp.StatusCode)
		}
		admitted <- decodeVerdict(t, resp)
	}()
	waitFor(t, "the first request to be admitted", func() bool { return p.admitted.Load() == 1 })

	var accepted time.Duration
	for _, ts := range tasksets[1:] {
		t0 := time.Now()
		resp := postVerdict(t, srv.Client(), srv.URL, ts, nil)
		resp.Body.Close()
		if d := time.Since(t0); d > accepted {
			accepted = d
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request against a full pipeline: status %d, want 503", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
			t.Fatalf("503 without a usable Retry-After (%q)", ra)
		}
	}
	// Shedding must be fast — far below one Retry-After period.
	if accepted > 500*time.Millisecond {
		t.Fatalf("shed responses took %v; shedding must not queue", accepted)
	}

	release()
	if got := <-admitted; !sameVerdict(got, want) {
		t.Fatalf("drained verdict diverged\n got %+v\nwant %+v", got, want)
	}

	srv.Close()
	p.Close()
	// Goroutines must return to (about) the pre-test level.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Fatalf("goroutines leaked: %d now vs %d at start", n, baseline)
	}
}

// FuzzVerdictRequest feeds arbitrary bytes to the POST /v1/verdict
// decode-and-validate step. It must never panic; every rejection must
// classify as a 400; and every accepted request must have an operation
// duration in [1, maxOSHours] h and survive the pipeline's own
// canonicalization and set validation.
func FuzzVerdictRequest(f *testing.F) {
	ts := serveCorpus(f, 79, 1)[0]
	s, err := task.NewSet(ts)
	if err != nil {
		f.Fatal(err)
	}
	set, err := json.Marshal(s)
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{
		`{"set":` + string(set) + `}`,
		`{"set":` + string(set) + `,"mode":"degrade","df":1.3,"test":"edf-vd-degrade","os_hours":2,"full_wcet":false}`,
		`{"set":` + string(set) + `,"mode":"degrade","df":1}`,
		`{"set":` + string(set) + `,"test":"no-such-test"}`,
		`{"set":` + string(set) + `,"os_hours":-3}`,
		`{"set":` + string(set) + `,"os_hours":11}`,
		`{"set":` + string(set) + `} {"os_hours":999}`,
		`{"set":` + string(set) + `}garbage`,
		`{"os_hour":10,"full_wcett":false,"set":` + string(set) + `}`,
		`{"set":{"tasks":[{"name":"a","T":"100ms","Deadline":"50ms","C":"10ms","level":"B","f":1e-5},` +
			`{"name":"b","T":"200ms","C":"20ms","level":"D","f":1e-5}]}}`,
		`{"set":{"tasks":[]}}`,
		`{"set":{"tasks":[{"T":"10ms","C":"20ms","level":"B","f":1e-5}]}}`,
		// Exact utilization 1 + 1/6,300,000,340,000,003; the float64 sum is 1.0.
		`{"set":{"tasks":[{"name":"h","T":"90000001us","C":"49500001us","level":"B","f":1e-12},` +
			`{"name":"l","T":"70000003us","C":"31500001us","level":"D","f":1e-12}]},"test":"edf"}`,
		`{"mode":"panic"}`,
		`{not json`,
		`null`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			if got := statusOf(err); got != http.StatusBadRequest {
				t.Fatalf("rejection %q classified as %d, want 400", err, got)
			}
			return
		}
		if h := req.Safety.OperationHours; h < 1 || h > maxOSHours {
			t.Fatalf("accepted request with OperationHours %d outside [1, %d]", h, maxOSHours)
		}
		canon := append([]task.Task(nil), req.Tasks...)
		task.SortCanonical(canon)
		if _, err := task.NewSet(canon); err != nil {
			t.Fatalf("accepted request fails set validation once canonicalized: %v", err)
		}
	})
}
