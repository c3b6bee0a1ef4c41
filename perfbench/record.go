package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// record is the machine-readable account of one run: the host and code
// it ran on, the seed, every reported number and the checks' outcome.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Seconds    float64            `json:"seconds"`
	Host       hostInfo           `json:"host"`
	Metrics    map[string]metric  `json:"metrics"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Problems   []string           `json:"problems,omitempty"`
	SimDigest  string             `json:"sim_digest,omitempty"`
	SavingPct  float64            `json:"sim_saving_pct"`
	Setup      []float64          `json:"setup_samples_s"`
	Units      []unit             `json:"passes"`
	OpSamples  int                `json:"op_samples"`
	P99Rank    float64            `json:"p99_reported_percentile"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Info       map[string]any     `json:"info,omitempty"`
	RunSeconds float64            `json:"run_seconds"`
	spans      []span
}

// hostInfo identifies where and on what code a record was made.
type hostInfo struct {
	CPUs         int    `json:"cpus"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Time         string `json:"time"`
}

func newRecord(o opts, r *result, metrics map[string]metric, took time.Duration) *record {
	_, rank := highPercentile(sortedCopy(r.Ops), 99)
	return &record{
		Workload: o.Workload, Seed: o.Seed, Trace: o.Trace, Seconds: o.Seconds,
		Host:    currentHost(),
		Metrics: metrics, Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Problems: r.Problems, SimDigest: r.Digest, SavingPct: r.SavingPct, Setup: r.Setup, Units: r.Units,
		OpSamples: len(r.Ops), P99Rank: rank, Layers: r.Layers, Info: r.Info,
		RunSeconds: took.Seconds(), spans: r.Spans,
	}
}

// write stores the record (and, for a traced run, its spans one per
// line) under dir and returns the record's path.
func (rec *record) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	trace := 0
	if rec.Trace {
		trace = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, trace))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	if rec.Trace {
		if err := writeSpans(base+"-spans.jsonl", rec.spans); err != nil {
			return "", err
		}
	}
	return base + ".json", nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func currentHost() hostInfo {
	h := hostInfo{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: "unknown", Time: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				h.Commit += "+modified"
			}
		}
	}
	h.SourceSHA256 = sourceDigest(".")
	return h
}

// sourceDigest hashes every Go source and module file under root (build
// output excepted), so a record names the code it measured even where
// the tree is not a git checkout.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p + "\x00" + strconv.Itoa(len(b)) + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if f := strings.Fields(string(line)); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
