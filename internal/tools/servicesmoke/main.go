// Command servicesmoke is the tilevmd end-to-end smoke gate: it
// starts a real daemon process on an ephemeral port, submits two
// guests over HTTP, polls them to completion, submits the first
// workload again — the repeat must be served from the daemon's
// translation memo and end exactly as the first did — scrapes /metrics
// for the daemon's families, then sends SIGTERM and asserts a graceful
// drain — every retained job terminal and a clean exit 0.
//
//	go build -o /tmp/tilevmd ./cmd/tilevmd
//	go run ./internal/tools/servicesmoke -bin /tmp/tilevmd
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

var listenRE = regexp.MustCompile(`tilevmd: listening on (\S+)`)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servicesmoke: "+format+"\n", args...)
	os.Exit(1)
}

// getJSON decodes a GET response into out, failing on transport or
// status errors.
func getJSON(base, path string, out any) {
	resp, err := http.Get(base + path)
	if err != nil {
		fail("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		fail("GET %s: %d %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		fail("GET %s: bad JSON %q: %v", path, body, err)
	}
}

type jobView struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Cycles   uint64 `json:"cycles"`
		ExitCode int32  `json:"exit_code"`
		Stdout   string `json:"stdout"`
	} `json:"result"`
}

// submit posts one job and returns its id.
func submit(base, wl string) string {
	body := fmt.Sprintf(`{"workload":%q,"timeout_ms":90000}`, wl)
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		fail("submit %s: %v", wl, err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		fail("submit %s: %d %s", wl, resp.StatusCode, data)
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil || v.ID == "" {
		fail("submit %s: bad view %s (%v)", wl, data, err)
	}
	return v.ID
}

// awaitFinished polls a job to its terminal state, which must be
// "finished" with a result.
func awaitFinished(base, id string, deadline time.Time) jobView {
	for {
		if time.Now().After(deadline) {
			fail("job %s did not finish in time", id)
		}
		var v jobView
		getJSON(base, "/api/v1/jobs/"+id, &v)
		switch v.State {
		case "finished":
			if v.Result == nil {
				fail("job %s finished without a result", id)
			}
			return v
		case "queued", "running":
			time.Sleep(100 * time.Millisecond)
		default:
			fail("job %s ended %s (%s), want finished", id, v.State, v.Error)
		}
	}
}

// scrape fetches /metrics.
func scrape(base string) []byte {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		fail("GET /metrics: %v", err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		fail("metrics content type %q", ct)
	}
	return metrics
}

// sample returns the value of an unlabelled metric in a scrape.
func sample(metrics []byte, name string) float64 {
	m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindSubmatch(metrics)
	if m == nil {
		fail("metrics missing %s:\n%s", name, metrics)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		fail("metric %s: %v", name, err)
	}
	return v
}

func main() {
	var (
		bin     = flag.String("bin", "", "path to a built tilevmd binary (required)")
		timeout = flag.Duration("timeout", 2*time.Minute, "overall smoke budget")
	)
	flag.Parse()
	if *bin == "" {
		fail("-bin is required (build it first: go build -o /tmp/tilevmd ./cmd/tilevmd)")
	}
	deadline := time.Now().Add(*timeout)

	cmd := exec.Command(*bin, "-addr", "127.0.0.1:0", "-grid", "4x4", "-queue-cap", "8", "-v")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fail("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fail("start %s: %v", *bin, err)
	}
	defer cmd.Process.Kill() // no-op after a clean Wait

	// The daemon announces its resolved address; everything else in
	// its output is collected for the post-drain assertions. addr and
	// tail are guarded by mu — the scanner goroutine runs until EOF.
	scanner := bufio.NewScanner(stdout)
	var (
		mu   sync.Mutex
		addr string
		tail bytes.Buffer
	)
	lineCh := make(chan struct{})
	eof := make(chan struct{})
	go func() {
		defer close(eof)
		for scanner.Scan() {
			line := scanner.Text()
			mu.Lock()
			tail.WriteString(line + "\n")
			first := addr == ""
			if m := listenRE.FindStringSubmatch(line); m != nil && first {
				addr = m[1]
			}
			gotAddr := addr != ""
			mu.Unlock()
			if first && gotAddr {
				close(lineCh)
			}
		}
	}()
	select {
	case <-lineCh:
	case <-time.After(10 * time.Second):
	}
	mu.Lock()
	base := "http://" + addr
	early := tail.String()
	mu.Unlock()
	if base == "http://" {
		fail("daemon never announced its listen address:\n%s", early)
	}
	fmt.Printf("servicesmoke: daemon up at %s\n", base)

	// Submit two guests; the 4×4 grid gives 2 VM slots, so they run
	// as one batch.
	ids := []string{submit(base, "164.gzip"), submit(base, "181.mcf")}
	fmt.Printf("servicesmoke: submitted %v\n", ids)
	first := awaitFinished(base, ids[0], deadline)
	awaitFinished(base, ids[1], deadline)
	fmt.Println("servicesmoke: both jobs finished")

	// The same workload again: the daemon has translated gzip, so this
	// job's blocks come from the translation memo, and it must end as
	// the first one did.
	before := scrape(base)
	if sample(before, "tilevmd_translation_memo_misses_total") == 0 {
		fail("two jobs ran and the translation memo holds nothing:\n%s", before)
	}
	ids = append(ids, submit(base, "164.gzip"))
	again := awaitFinished(base, ids[2], deadline)
	if *again.Result != *first.Result {
		fail("164.gzip repeated: result %+v, first time %+v", *again.Result, *first.Result)
	}
	metrics := scrape(base)
	hits := sample(metrics, "tilevmd_translation_memo_hits_total") - sample(before, "tilevmd_translation_memo_hits_total")
	if hits == 0 {
		fail("repeating 164.gzip hit nothing in the translation memo:\n%s", metrics)
	}
	fmt.Printf("servicesmoke: repeat of 164.gzip served %.0f translations from the memo, same result\n", hits)

	// Check the daemon's families are present with the lifecycle we
	// just drove.
	for _, w := range []string{
		"tilevmd_jobs_submitted_total 3",
		`tilevmd_jobs_terminal_total{state="finished"} 3`,
		"tilevmd_queue_depth 0",
		"tilevmd_job_latency_seconds_count 3",
		"tilevmd_translation_memo_bypassed_total 0",
		"tilevmd_up 1",
	} {
		if !bytes.Contains(metrics, []byte(w)) {
			fail("metrics missing %q:\n%s", w, metrics)
		}
	}
	fmt.Println("servicesmoke: metrics families present")

	// SIGTERM must drain gracefully: exit 0 with the drain banner and
	// every retained job reported finished (-v).
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fail("SIGTERM: %v", err)
	}
	waitErr := cmd.Wait()
	<-eof // scanner goroutine has drained all remaining output
	mu.Lock()
	out := tail.String()
	mu.Unlock()
	if waitErr != nil {
		fail("daemon exit after SIGTERM: %v\n%s", waitErr, out)
	}
	if !strings.Contains(out, "tilevmd: drained, exiting") {
		fail("no drain banner in output:\n%s", out)
	}
	for _, id := range ids {
		if !strings.Contains(out, fmt.Sprintf("job %s finished", id)) {
			fail("drain dump missing 'job %s finished':\n%s", id, out)
		}
	}
	fmt.Println("servicesmoke: SIGTERM drained cleanly, exit 0")
}
