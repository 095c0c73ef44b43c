// Command servesmoke is the `make serve-smoke` driver: it builds wspd,
// starts it on an ephemeral port, probes /healthz, drives every solve
// endpoint once — /v1/solve, /v1/batch, a plain and a streamed /v1/sweep
// (cell lines, then a summary line) and /v1/lifelong (epoch lines, then a
// report line) — and requires /debug/vars to count every one of them as
// admitted. Then it sends SIGTERM and requires a drain-clean exit 0: the
// daemon's whole lifecycle contract (serve → answer → drain), end to end,
// with no curl dependency.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve-smoke:", err)
		os.Exit(1)
	}
	fmt.Println("serve-smoke: ok (healthz + solve, batch, sweep, streamed sweep, lifelong + drain-clean exit 0)")
}

func run() error {
	dir, err := os.MkdirTemp("", "wspd-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "wspd")

	build := exec.Command("go", "build", "-o", bin, "./cmd/wspd")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building wspd: %w", err)
	}

	daemon := exec.Command(bin, "-addr", "127.0.0.1:0", "-strategy", "route")
	stderr, err := daemon.StderrPipe()
	if err != nil {
		return err
	}
	if err := daemon.Start(); err != nil {
		return fmt.Errorf("starting wspd: %w", err)
	}
	// On any failure below, don't leave the daemon running.
	defer daemon.Process.Kill()

	// The daemon logs "wspd: serving on 127.0.0.1:PORT (...)" once bound.
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, line)
			if i := strings.Index(line, "serving on "); i >= 0 {
				rest := line[i+len("serving on "):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				select {
				case addr <- rest:
				default:
				}
			}
		}
	}()
	var base string
	select {
	case a := <-addr:
		base = "http://" + a
	case <-time.After(10 * time.Second):
		return fmt.Errorf("wspd did not report its listen address in 10s")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}

	body, err := post(base, "/v1/solve", `{"map":"sorting","units":120,"horizon":3600,"deadline_ms":60000}`)
	if err != nil {
		return err
	}
	var solved struct {
		OK     bool `json:"ok"`
		Agents int  `json:"agents"`
	}
	if err := json.Unmarshal(body, &solved); err != nil || !solved.OK || solved.Agents <= 0 {
		return fmt.Errorf("solve: implausible response %s (err=%v)", bytes.TrimSpace(body), err)
	}
	fmt.Printf("serve-smoke: solved sorting/120 with %d agents\n", solved.Agents)

	body, err = post(base, "/v1/batch", `{"instances":[{"map":"sorting","units":60,"horizon":3600},`+
		`{"map":"sorting","units":120,"horizon":3600}],"deadline_ms":60000}`)
	if err != nil {
		return err
	}
	var batch struct {
		OK    bool `json:"ok"`
		Items []struct {
			OK bool `json:"ok"`
		} `json:"items"`
	}
	if err := json.Unmarshal(body, &batch); err != nil || !batch.OK || len(batch.Items) != 2 ||
		!batch.Items[0].OK || !batch.Items[1].OK {
		return fmt.Errorf("batch: implausible response %s (err=%v)", bytes.TrimSpace(body), err)
	}

	const grid = `"corridors":[2],"lens":[6,7],"units":60,"points":1,"horizon":1200,"deadline_ms":60000`
	body, err = post(base, "/v1/sweep", "{"+grid+"}")
	if err != nil {
		return err
	}
	var sweep struct {
		OK    bool              `json:"ok"`
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(body, &sweep); err != nil || !sweep.OK || len(sweep.Cells) != 2 {
		return fmt.Errorf("sweep: implausible response %s (err=%v)", bytes.TrimSpace(body), err)
	}
	if err := postStream(base, "/v1/sweep", "{"+grid+`,"stream":true}`, "cell", "summary"); err != nil {
		return err
	}
	if err := postStream(base, "/v1/lifelong", `{"map":"sorting","horizon":3600,"deadline_ms":60000,`+
		`"batches":[{"release":0,"units":60},{"release":1200,"units":60}]}`, "epoch", "report"); err != nil {
		return err
	}

	resp, err = http.Get(base + "/debug/vars")
	if err != nil {
		return fmt.Errorf("vars: %w", err)
	}
	var vars struct {
		Admitted int `json:"admitted_total"`
	}
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil || vars.Admitted != 5 {
		return fmt.Errorf("vars: admitted_total %d after 5 requests (err=%v)", vars.Admitted, err)
	}

	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("wspd exited dirty after SIGTERM: %w", err)
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("wspd did not exit within 30s of SIGTERM")
	}
	return nil
}

// post sends one JSON request and returns the body of its 200 answer.
func post(base, path, body string) ([]byte, error) {
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// postStream sends one request answered in NDJSON and requires one or
// more lines of type kind, then one ok line of type last.
func postStream(base, path, body, kind, last string) error {
	out, err := post(base, path, body)
	if err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for i, line := range lines {
		var l struct {
			Type string `json:"type"`
			OK   bool   `json:"ok"`
		}
		want, end := kind, i == len(lines)-1
		if end {
			want = last
		}
		if err := json.Unmarshal(line, &l); err != nil || l.Type != want || (end && (i == 0 || !l.OK)) {
			return fmt.Errorf("%s: line %d of %d is %s, want %q lines then an ok %q line (err=%v)",
				path, i+1, len(lines), line, kind, last, err)
		}
	}
	return nil
}
