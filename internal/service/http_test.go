package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// doJSON issues a request against the test server and decodes the
// JSON body into out (if non-nil), returning the status code.
func doJSON(t *testing.T, srv *httptest.Server, method, path, body string, out any) int {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, data, err)
		}
	}
	return resp.StatusCode
}

func TestHTTPEndToEnd(t *testing.T) {
	f := newStub()
	s := newTestService(t, Config{QueueCap: 1, onBatchStart: func([]string) {}}, f)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Probes start healthy and ready.
	if code := doJSON(t, srv, "GET", "/healthz", "", nil); code != 200 {
		t.Errorf("healthz = %d", code)
	}
	if code := doJSON(t, srv, "GET", "/readyz", "", nil); code != 200 {
		t.Errorf("readyz = %d", code)
	}

	// Submit: accepted with an assigned id.
	var view JobView
	if code := doJSON(t, srv, "POST", "/api/v1/jobs",
		`{"workload":"164.gzip","class":"high","timeout_ms":60000}`, &view); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	if view.ID == "" || view.Class != "high" {
		t.Fatalf("submit view = %+v", view)
	}

	// Structured rejections.
	var er errorResponse
	if code := doJSON(t, srv, "POST", "/api/v1/jobs",
		`{"workload":"no-such"}`, &er); code != http.StatusBadRequest || er.Reason != "bad_request" {
		t.Errorf("bad workload = %d %+v", code, er)
	}
	if code := doJSON(t, srv, "POST", "/api/v1/jobs",
		`{"workload":"164.gzip","class":"urgent"}`, &er); code != http.StatusBadRequest {
		t.Errorf("bad class = %d %+v", code, er)
	}
	if code := doJSON(t, srv, "POST", "/api/v1/jobs",
		`{"id":"`+view.ID+`","workload":"164.gzip"}`, &er); code != http.StatusConflict || er.Reason != "duplicate_id" {
		t.Errorf("duplicate = %d %+v", code, er)
	}
	if code := doJSON(t, srv, "GET", "/api/v1/jobs/ghost", "", &er); code != http.StatusNotFound || er.Reason != "unknown_job" {
		t.Errorf("unknown job = %d %+v", code, er)
	}

	// The first job occupies the slot (stub holds it) — fill the
	// 1-deep queue, then overflow: a structured 429, not growth.
	if code := doJSON(t, srv, "POST", "/api/v1/jobs",
		`{"id":"queued","workload":"164.gzip"}`, nil); code != http.StatusAccepted {
		t.Fatalf("second submit = %d", code)
	}
	if code := doJSON(t, srv, "POST", "/api/v1/jobs",
		`{"workload":"164.gzip"}`, &er); code != http.StatusTooManyRequests || er.Reason != "queue_full" {
		t.Errorf("overflow = %d %+v, want 429 queue_full", code, er)
	}

	// Cancel the queued job over HTTP.
	var cr map[string]bool
	if code := doJSON(t, srv, "POST", "/api/v1/jobs/queued/cancel", "", &cr); code != 200 || !cr["canceled"] {
		t.Errorf("cancel = %d %+v", code, cr)
	}

	// Release the in-flight batch and wait for the first job.
	f.release <- struct{}{}
	done, err := s.Done(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	<-done

	var got JobView
	if code := doJSON(t, srv, "GET", "/api/v1/jobs/"+view.ID, "", &got); code != 200 {
		t.Fatalf("get = %d", code)
	}
	if got.State != StateFinished.String() || got.Result == nil {
		t.Fatalf("job view = %+v, want finished with result", got)
	}
	if got.Result.Stdout != stubStdout || got.Result.ExitCode != 7 {
		t.Errorf("job result = %+v, want the guest's exit code 7 and stdout %q", got.Result, stubStdout)
	}
	var list []JobView
	if code := doJSON(t, srv, "GET", "/api/v1/jobs", "", &list); code != 200 || len(list) != 2 {
		t.Errorf("list = %d with %d jobs, want 2", code, len(list))
	}

	// Metrics scrape: Prometheus text with the daemon's families.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"tilevmd_jobs_submitted_total 2",
		`tilevmd_jobs_rejected_total{reason="queue_full"} 1`,
		`tilevmd_jobs_terminal_total{state="finished"} 1`,
		"tilevmd_job_latency_seconds_count",
		"tilevmd_go_heap_objects_bytes ",
		"tilevmd_up 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	// Drain flips readiness and closes admission with a 503.
	go s.Drain(context.Background())
	for !s.Draining() {
		runtime.Gosched()
	}
	if code := doJSON(t, srv, "GET", "/readyz", "", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", code)
	}
	if code := doJSON(t, srv, "POST", "/api/v1/jobs",
		`{"workload":"164.gzip"}`, &er); code != http.StatusServiceUnavailable || er.Reason != "draining" {
		t.Errorf("submit while draining = %d %+v, want 503 draining", code, er)
	}
	if code := doJSON(t, srv, "GET", "/healthz", "", nil); code != 200 {
		t.Errorf("healthz while draining = %d, want 200", code)
	}
}
