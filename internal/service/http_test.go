package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// -update rewrites the golden response bodies instead of comparing:
//
//	go test ./internal/service -run TestAPIConformance -update
var update = flag.Bool("update", false, "rewrite the API conformance golden files")

// redactTimes walks a decoded JSON value and replaces every timestamp
// field with a fixed token, so golden files pin structure and content
// without pinning wall-clock time.
func redactTimes(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			switch k {
			case "created", "started", "finished":
				x[k] = "<timestamp>"
			default:
				x[k] = redactTimes(val)
			}
		}
		return x
	case []any:
		for i := range x {
			x[i] = redactTimes(x[i])
		}
		return x
	default:
		return v
	}
}

// normalizeJSON re-renders a response body with timestamps redacted.
func normalizeJSON(t *testing.T, body []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	out, err := json.MarshalIndent(redactTimes(v), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// checkGolden compares got against testdata/<name>, honoring -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// do executes one request against the handler.
func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// TestAPIConformance drives every endpoint through its success and
// failure shapes against golden bodies. The fixture service is built
// into a known state first — one done job, one canceled job, one
// cache-hit job — so responses are deterministic and the goldens stay
// byte-stable across runs.
func TestAPIConformance(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s, _ := newTestService(t, func(o *Options) { o.Workers = 1 })
	s.beforeRun = func(*job) {
		once.Do(func() { close(started) })
		<-release
	}
	h := s.Handler()

	// Fixture: c000001 done, c000002 canceled-before-start, c000003
	// cache hit of c000001's spec.
	specA := `{"circuit":"s27","la":10,"lb":5,"n":2,"seed":21}`
	specB := `{"circuit":"s27","la":10,"lb":5,"n":2,"seed":22}`
	if w := do(h, "POST", "/v1/campaigns", specA); w.Code != http.StatusAccepted {
		t.Fatalf("fixture submit A: %d %s", w.Code, w.Body)
	}
	<-started
	if w := do(h, "POST", "/v1/campaigns", specB); w.Code != http.StatusAccepted {
		t.Fatalf("fixture submit B: %d %s", w.Code, w.Body)
	}
	if w := do(h, "DELETE", "/v1/campaigns/c000002", ""); w.Code != http.StatusOK {
		t.Fatalf("fixture cancel B: %d %s", w.Code, w.Body)
	}
	close(release)
	waitDone(t, s, "c000001")
	if w := do(h, "POST", "/v1/campaigns", specA); w.Code != http.StatusOK {
		t.Fatalf("fixture cache hit: %d %s", w.Code, w.Body)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		golden string // empty: skip body comparison
	}{
		{"submit_new", "POST", "/v1/campaigns", `{"circuit":"s27","la":10,"lb":5,"n":2,"seed":23}`,
			http.StatusAccepted, "submit_new.json"},
		{"submit_cache_hit", "POST", "/v1/campaigns", specA, http.StatusOK, "submit_cache_hit.json"},
		{"submit_malformed_json", "POST", "/v1/campaigns", `{"circuit":`, http.StatusBadRequest, "submit_malformed_json.json"},
		{"submit_unknown_field", "POST", "/v1/campaigns", `{"circuit":"s27","bogus":1}`, http.StatusBadRequest, "submit_unknown_field.json"},
		{"submit_unknown_circuit", "POST", "/v1/campaigns", `{"circuit":"no-such-bench"}`, http.StatusBadRequest, "submit_unknown_circuit.json"},
		{"submit_bad_mode", "POST", "/v1/campaigns", `{"circuit":"s27","mode":"pattern-parallel"}`, http.StatusBadRequest, "submit_bad_mode.json"},
		{"submit_trailing_garbage", "POST", "/v1/campaigns", `{"circuit":"s27"} {"again":true}`, http.StatusBadRequest, ""},
		{"get_done", "GET", "/v1/campaigns/c000001", "", http.StatusOK, "get_done.json"},
		{"get_canceled", "GET", "/v1/campaigns/c000002", "", http.StatusOK, "get_canceled.json"},
		{"get_cache_hit", "GET", "/v1/campaigns/c000003", "", http.StatusOK, "get_cache_hit.json"},
		{"get_unknown_id", "GET", "/v1/campaigns/zzz", "", http.StatusNotFound, "get_unknown_id.json"},
		{"report_canceled", "GET", "/v1/campaigns/c000002/report", "", http.StatusConflict, "report_canceled.json"},
		{"report_unknown_id", "GET", "/v1/campaigns/zzz/report", "", http.StatusNotFound, "report_unknown_id.json"},
		{"cancel_unknown_id", "DELETE", "/v1/campaigns/zzz", "", http.StatusNotFound, "cancel_unknown_id.json"},
		{"cancel_terminal", "DELETE", "/v1/campaigns/c000002", "", http.StatusConflict, "cancel_terminal.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(h, tc.method, tc.path, tc.body)
			if w.Code != tc.status {
				t.Fatalf("%s %s = %d, want %d\n%s", tc.method, tc.path, w.Code, tc.status, w.Body)
			}
			if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("Content-Type %q, want application/json", ct)
			}
			if tc.golden != "" {
				checkGolden(t, tc.golden, normalizeJSON(t, w.Body.Bytes()))
			}
		})
	}

	t.Run("list", func(t *testing.T) {
		// The submit_new case above queued c000004; let it finish so the
		// listing is a fixed point, not a snapshot of a moving scheduler.
		waitDone(t, s, "c000004")
		w := do(h, "GET", "/v1/campaigns", "")
		if w.Code != http.StatusOK {
			t.Fatalf("list = %d", w.Code)
		}
		checkGolden(t, "list.json", normalizeJSON(t, w.Body.Bytes()))
	})

	t.Run("report_done", func(t *testing.T) {
		w := do(h, "GET", "/v1/campaigns/c000001/report", "")
		if w.Code != http.StatusOK {
			t.Fatalf("report = %d", w.Code)
		}
		if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("report Content-Type %q", ct)
		}
		want, err := s.Report("c000001")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Error("HTTP report differs from Service.Report")
		}
		// The cache-hit job serves the identical bytes.
		w2 := do(h, "GET", "/v1/campaigns/c000003/report", "")
		if !bytes.Equal(w2.Body.Bytes(), want) {
			t.Error("cached job's report differs from the original's")
		}
	})

	t.Run("wrong_method", func(t *testing.T) {
		for _, c := range []struct{ method, path string }{
			{"PUT", "/v1/campaigns"},
			{"DELETE", "/v1/campaigns"},
			{"POST", "/v1/campaigns/c000001"},
			{"PUT", "/v1/campaigns/c000001/report"},
		} {
			w := do(h, c.method, c.path, "")
			if w.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405", c.method, c.path, w.Code)
			}
			if w.Header().Get("Allow") == "" {
				t.Errorf("%s %s: 405 without Allow header", c.method, c.path)
			}
		}
	})

	t.Run("oversized_body", func(t *testing.T) {
		body := `{"circuit":"` + strings.Repeat("x", maxBodyBytes) + `"}`
		w := do(h, "POST", "/v1/campaigns", body)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized body = %d, want 413", w.Code)
		}
	})

	t.Run("introspection", func(t *testing.T) {
		for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
			if w := do(h, "GET", path, ""); w.Code != http.StatusOK {
				t.Errorf("GET %s = %d", path, w.Code)
			}
		}
		if w := do(h, "GET", "/metrics", ""); !strings.Contains(w.Body.String(), "service_jobs_submitted_total") {
			t.Error("/metrics does not expose the service counters")
		}
		if w := do(h, "GET", "/trace/c000001", ""); w.Code != http.StatusOK {
			t.Errorf("GET /trace/c000001 = %d", w.Code)
		}
		if w := do(h, "GET", "/trace/zzz", ""); w.Code != http.StatusNotFound {
			t.Errorf("GET /trace/zzz = %d, want 404", w.Code)
		}
	})
}

// TestHTTPSaturation: a full queue turns POST into 429 with a
// Retry-After header — the back-pressure contract clients key off.
// Runs on its own service so the blocked worker can't disturb the
// conformance fixtures.
func TestHTTPSaturation(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s, _ := newTestService(t, func(o *Options) {
		o.Workers = 1
		o.QueueDepth = 1
	})
	s.beforeRun = func(*job) {
		once.Do(func() { close(started) })
		<-release
	}
	defer close(release)
	h := s.Handler()

	submit := func(seed int) *httptest.ResponseRecorder {
		return do(h, "POST", "/v1/campaigns",
			fmt.Sprintf(`{"circuit":"s27","la":10,"lb":5,"n":2,"seed":%d}`, seed))
	}
	if w := submit(31); w.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d", w.Code)
	}
	<-started
	if w := submit(32); w.Code != http.StatusAccepted {
		t.Fatalf("second submit: %d", w.Code)
	}
	w := submit(33)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %d, want 429\n%s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	checkGolden(t, "submit_saturated.json", normalizeJSON(t, w.Body.Bytes()))

	// The queued job's report is not ready: 409, not 404 and not a hang.
	wr := do(h, "GET", "/v1/campaigns/c000002/report", "")
	if wr.Code != http.StatusConflict {
		t.Fatalf("report of queued job = %d, want 409\n%s", wr.Code, wr.Body)
	}
	checkGolden(t, "report_not_ready.json", normalizeJSON(t, wr.Body.Bytes()))
}

// TestHTTPRetryAfterConfigurable: the 429 back-pressure header honors
// Options.RetryAfterSeconds, with anything below one clamped to the
// old hardwired "1" so existing clients see no change by default.
func TestHTTPRetryAfterConfigurable(t *testing.T) {
	cases := []struct {
		name    string
		seconds int
		want    string
	}{
		{"zero clamps to default", 0, "1"},
		{"negative clamps to default", -3, "1"},
		{"explicit default", 1, "1"},
		{"custom backoff", 7, "7"},
	}
	for i, tc := range cases {
		tc, i := tc, i
		t.Run(tc.name, func(t *testing.T) {
			release := make(chan struct{})
			started := make(chan struct{})
			var once sync.Once
			s, _ := newTestService(t, func(o *Options) {
				o.Workers = 1
				o.QueueDepth = 1
				o.RetryAfterSeconds = tc.seconds
			})
			s.beforeRun = func(*job) {
				once.Do(func() { close(started) })
				<-release
			}
			defer close(release)
			h := s.Handler()
			// Distinct seeds per case keep ParamsHash collisions (and
			// with them cache hits) out of the saturation setup.
			submit := func(n int) *httptest.ResponseRecorder {
				return do(h, "POST", "/v1/campaigns",
					fmt.Sprintf(`{"circuit":"s27","la":10,"lb":5,"n":2,"seed":%d}`, 1000+10*i+n))
			}
			if w := submit(0); w.Code != http.StatusAccepted {
				t.Fatalf("first submit: %d", w.Code)
			}
			<-started
			if w := submit(1); w.Code != http.StatusAccepted {
				t.Fatalf("second submit: %d", w.Code)
			}
			w := submit(2)
			if w.Code != http.StatusTooManyRequests {
				t.Fatalf("saturated submit = %d, want 429\n%s", w.Code, w.Body)
			}
			if got := w.Header().Get("Retry-After"); got != tc.want {
				t.Errorf("Retry-After = %q, want %q", got, tc.want)
			}
		})
	}
}
