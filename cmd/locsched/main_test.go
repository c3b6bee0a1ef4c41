package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"locsched/internal/obs"
	"locsched/internal/server"
)

// TestFlagValidation is the usage-error table: every nonsensical flag
// value must fail at parse time with exit code 2 and a message naming
// the flag, before any experiment starts.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of stderr
	}{
		{"negative scale", []string{"-scale", "-1", "table2"}, "-scale"},
		{"negative cores", []string{"-cores", "-8", "table2"}, "-cores"},
		{"negative quantum", []string{"-quantum", "-2048", "table2"}, "-quantum"},
		{"negative par", []string{"-par", "-2", "fig6"}, "-par"},
		{"negative affinity", []string{"-affinity", "-5", "fig6"}, "-affinity"},
		{"negative qbatch", []string{"-qbatch", "-3", "fig6"}, "-qbatch"},
		{"negative adecay", []string{"-adecay", "-100", "fig6"}, "-adecay"},
		{"zero-core xlpoint", []string{"-xlpoints", "0:4", "fig7xl"}, "cores and tasks must be positive"},
		{"zero-task xlpoint", []string{"-xlpoints", "64:0", "fig7xl"}, "cores and tasks must be positive"},
		{"malformed xlpoint", []string{"-xlpoints", "64", "fig7xl"}, "not cores:tasks"},
		{"empty xlpoints", []string{"-xlpoints", ",", "fig7xl"}, "empty ladder"},
		{"negative xlmax", []string{"-xlmax", "-512", "fig7xl"}, "-xlmax"},
		{"tiny xlmax", []string{"-xlmax", "16", "fig7xl"}, "at least 32"},
		{"zero xlsize", []string{"-xlsizes", "0,8", "sweepxl"}, "-xlsizes"},
		{"negative xlassoc", []string{"-xlassoc", "-2", "sweepxl"}, "-xlassoc"},
		{"zero xlmiss", []string{"-xlmiss", "0", "sweepxl"}, "-xlmiss"},
		{"negative awindow", []string{"-awindows", "-1,4", "affinity"}, "-awindows"},
		{"negative abatch", []string{"-abatches", "-4", "affinity"}, "-abatches"},
		{"unknown policy", []string{"-policy", "bogus", "fig6"}, "unknown policy"},
		{"negative hop", []string{"-hop", "-4", "fig6"}, "-hop"},
		{"bad speeds", []string{"-speeds", "1,zero", "fig6"}, "-speeds"},
		{"zero speed class", []string{"-speeds", "0,2", "fig6"}, "-speeds"},
		{"bad topo", []string{"-topo", "torus", "fig6"}, "-topo"},
		{"bad tspeeds", []string{"-tspeeds", "1;x", "topo"}, "-tspeeds"},
		{"empty tspeeds", []string{"-tspeeds", ";", "topo"}, "-tspeeds"},
		{"bad ttopos", []string{"-ttopos", "bus,hypercube", "topo"}, "-ttopos"},
		{"negative thops", []string{"-thops", "0,-16", "topo"}, "-thops"},
		{"removed flat flag", []string{"-flat", "fig6"}, "flag provided but not defined: -flat"},
		{"unknown command", []string{"frobnicate"}, "usage:"},
		{"missing command", nil, "usage:"},
		{"two commands", []string{"fig6", "fig7"}, "usage:"},
		{"bench without target", []string{"bench"}, "-serve URL"},
		{"bench negative conc", []string{"bench", "-serve", "http://x", "-conc", "-1"}, "usage"},
		{"bench zero requests", []string{"bench", "-serve", "http://x", "-requests", "0"}, "usage"},
		{"bench stray arg", []string{"bench", "-serve", "http://x", "extra"}, "usage"},
		{"bench removed metrics-url flag", []string{"bench", "-serve", "http://x", "-metrics-url", "http://x/metricsz"}, "flag provided but not defined: -metrics-url"},
		{"serve zero queue", []string{"serve", "-queue", "0"}, "queue depth"},
		{"serve zero workers", []string{"serve", "-workers", "0"}, "workers"},
		{"serve stray arg", []string{"serve", "extra"}, "unexpected arguments"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(c.args, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("run(%q) = %d, want usage error (2); stderr: %s", c.args, code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.wantErr) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), c.wantErr)
			}
			if stdout.Len() != 0 {
				t.Errorf("usage error still produced output: %q", stdout.String())
			}
		})
	}
}

// TestFlagValidationAccepts pins the valid edges of the same flags: the
// -1 "use default" sentinels and zero "unset" values must not trip the
// validators (table2 is the cheapest command that exercises the full
// config pipeline).
func TestFlagValidationAccepts(t *testing.T) {
	cases := [][]string{
		{"table2"},
		{"-scale", "0", "-cores", "0", "-quantum", "0", "-par", "0", "table2"},
		{"-affinity", "-1", "-qbatch", "-1", "-adecay", "-1", "table2"},
		{"-affinity", "0", "-qbatch", "0", "-adecay", "0", "table2"},
		{"-cores", "512", "-xlmax", "0", "table2"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Errorf("run(%q) = %d, want 0; stderr: %s", args, code, stderr.String())
		}
	}
}

// TestXLMaxLadder: -xlmax builds the doubling ladder (checked through
// table2 so no simulation runs; the ladder itself is validated, and the
// fig7xl path is covered by the experiment package's tests).
func TestXLMaxLadder(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-xlmax", "512", "table2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-xlmax 512 rejected: %s", stderr.String())
	}
}

// TestTopoCommand: the machine-model ablation end to end on the
// smallest possible grid (one heterogeneous mesh cell beyond the
// baseline) at minimum scale, so the command stays cheap in CI.
func TestTopoCommand(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-scale", "1", "-tspeeds", "1,2", "-ttopos", "mesh", "-thops", "8", "topo"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("topo failed (%d): %s", code, stderr.String())
	}
	for _, want := range []string{"uniform/bus", "1,2/mesh/h8", "RRS=", "LSM="} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("topo output missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestTable1Output: a real command end to end through the testable entry
// point.
func TestTable1Output(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"table1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("table1 failed (%d): %s", code, stderr.String())
	}
	for _, want := range []string{"Med-Im04", "MxM", "Radar", "Shape", "Track", "Usonic"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

// TestAblateGolden: `locsched ablate` on the default machine must stay
// byte-identical to testdata/ablate.golden. The ablations run through
// the same cell pipeline as the figures, so this pins that the static
// dispatch modes, replacement and indexing variants and the
// greedy-vs-optimal table keep their bytes across refactors.
func TestAblateGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "ablate.golden"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"ablate"}, &stdout, &stderr); code != 0 {
		t.Fatalf("ablate failed (%d): %s", code, stderr.String())
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("ablate output drifted from testdata/ablate.golden:\n--- golden ---\n%s--- got ---\n%s", want, got)
	}
}

// burstGate wraps the real planner so the bench's coalesce burst always
// overlaps: the first /v1/run job that sets a quantum (only the burst
// does) holds its execution until the daemon's /metricsz shows
// followers coalesced requests, or 10 s pass. Without it the leader
// can finish before the other burst requests reach the daemon.
type burstGate struct {
	server.Planner
	followers  float64
	metricsURL string
	held       atomic.Bool
}

func (g *burstGate) Plan(endpoint string, body []byte) (*server.Job, error) {
	job, err := g.Planner.Plan(endpoint, body)
	var req server.RunRequest
	if err != nil || endpoint != "run" || json.Unmarshal(body, &req) != nil || req.Config.Quantum == 0 {
		return job, err
	}
	run := job.Run
	job.Run = func() ([]byte, error) {
		if g.held.CompareAndSwap(false, true) {
			g.awaitFollowers()
		}
		return run()
	}
	return job, nil
}

func (g *burstGate) awaitFollowers() {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		resp, err := http.Get(g.metricsURL)
		if err != nil {
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		samples, perr := obs.ParseExposition(body)
		if err != nil || perr != nil {
			continue
		}
		for _, s := range samples {
			if s.Name == "locsched_server_coalesced_total" && s.Value >= g.followers {
				return
			}
		}
	}
}

// TestBenchServe: `locsched bench -serve` end to end against an
// in-process daemon running the real planner — the stream replays
// without errors, the -expect-cache assertion (nonzero cache hits and
// coalesces, read from the daemon's /metricsz deltas) holds, and the
// report carries the server-side latency lines. The planner is wrapped
// in a burstGate so the coalesce burst overlaps on every run.
func TestBenchServe(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	const conc = 4
	gate := &burstGate{Planner: server.NewPlanner(server.DefaultConfig()), followers: conc - 1}
	benchServe(t, conc, gate, func(url string) { gate.metricsURL = url + "/metricsz" })
}

// TestBenchServeUngated: the same run against the plain production
// planner. The bench itself sends the burst's followers only once the
// daemon shows the leader in flight, so -expect-cache holds without any
// help from the daemon's side.
func TestBenchServeUngated(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	benchServe(t, 4, nil, nil)
}

// benchServe runs `locsched bench -serve … -expect-cache` at conc
// clients against an in-process daemon over planner (nil = production);
// ready, when set, receives the daemon's URL before the bench starts.
func benchServe(t *testing.T, conc int, planner server.Planner, ready func(url string)) {
	t.Helper()
	srv, err := server.New(server.DefaultConfig(), planner)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	if ready != nil {
		ready(ts.URL)
	}
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	var stdout, stderr bytes.Buffer
	args := []string{"bench", "-serve", ts.URL, "-conc", strconv.Itoa(conc), "-requests", "60", "-scale", "1", "-expect-cache"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%q) = %d; stderr: %s\nstdout: %s", args, code, stderr.String(), stdout.String())
	}
	if !strings.Contains(stdout.String(), "server request (this run)") {
		t.Errorf("bench output missing the server request line:\n%s", stdout.String())
	}
}
