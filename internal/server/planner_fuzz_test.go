package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"locsched/internal/mpsoc"
)

// FuzzTopologyDecode fuzzes the machine-model surface that /v1/run (and,
// through the same parsers, the CLI's machine flags and topo grid)
// accepts: speed-class specs, topology names, and hop penalties. The
// properties under test:
//
//   - the planner never panics on any machine spec, valid or not;
//   - planning is deterministic — a body that plans once plans again to
//     the same content-addressed key;
//   - an accepted plan implies the machine spec validates, so the
//     magnitude caps (MaxSpeedClasses, MaxSpeedClass, MaxHopPenalty)
//     cannot be bypassed over HTTP;
//   - ParseSpeedClasses only accepts classes in [1, MaxSpeedClass] and
//     never returns an empty table;
//   - ParseTopology round-trips through Topology.String.
func FuzzTopologyDecode(f *testing.F) {
	f.Add("1,4", "mesh", int64(16))
	f.Add("", "bus", int64(0))
	f.Add("1", "", int64(0))
	f.Add("1,2,4,8", "ring", int64(1))
	f.Add("0", "mesh", int64(-1))      // class below minimum, negative hop
	f.Add("1,1025", "torus", int64(4)) // class above cap, unknown topology
	f.Add("1,,4", "MESH", int64(1<<20+1))
	f.Add(" 2 , 3 ", "Bus", int64(7))
	f.Add("9999999999999999999999", "ring\x00", int64(42))

	planner := NewPlanner(DefaultConfig())
	f.Fuzz(func(t *testing.T, speeds, topo string, hop int64) {
		classes, err := mpsoc.ParseSpeedClasses(speeds)
		if err == nil {
			if len(classes) == 0 {
				t.Fatalf("ParseSpeedClasses(%q) returned an empty table without error", speeds)
			}
			for _, c := range classes {
				if c < 1 || c > mpsoc.MaxSpeedClass {
					t.Fatalf("ParseSpeedClasses(%q) accepted out-of-range class %d", speeds, c)
				}
			}
		}
		if tp, err := mpsoc.ParseTopology(topo); err == nil {
			rt, err := mpsoc.ParseTopology(tp.String())
			if err != nil || rt != tp {
				t.Fatalf("ParseTopology(%q) = %v does not round-trip: %v, %v", topo, tp, rt, err)
			}
		}

		body, err := json.Marshal(RunRequest{
			Workload: WorkloadSpec{App: "MxM"},
			Policy:   "ls",
			Config: ConfigSpec{
				SpeedClasses: speeds,
				Topology:     topo,
				HopPenalty:   &hop,
			},
		})
		if err != nil {
			return // unencodable fuzz input (invalid UTF-8 is replaced, so this is rare)
		}
		job, err := planner.Plan("run", body)
		if err != nil {
			return // rejected spec: a 400, which is fine — we only require no panic
		}
		m := mpsoc.Machine{SpeedClasses: speeds, HopPenalty: hop}
		if topo != "" {
			tp, perr := mpsoc.ParseTopology(topo)
			if perr != nil {
				t.Fatalf("plan accepted unparseable topology %q", topo)
			}
			m.Topology = tp
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("plan accepted machine spec that fails validation: %v", verr)
		}
		again, err := planner.Plan("run", body)
		if err != nil {
			t.Fatalf("replanning the same body failed: %v", err)
		}
		if again.Key != job.Key {
			t.Fatalf("replanning the same body diverged: key %q vs %q", job.Key, again.Key)
		}
	})
}

// FuzzRunRequest fuzzes whole /v1/run bodies, inline task sets included
// (seed corpus in testdata/fuzz/FuzzRunRequest). The properties under
// test:
//
//   - planning never panics, whatever the body;
//   - a rejected body is a client error: the daemon's handler answers
//     it with a 400;
//   - planning is deterministic — an accepted body plans again to the
//     same content-addressed key.
//
// Accepted bodies are planned, never executed, so the target stays
// cheap per input.
func FuzzRunRequest(f *testing.F) {
	cfg := DefaultConfig()
	cfg.Scale = 1
	planner := NewPlanner(cfg)
	srv, err := New(cfg, planner)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Shutdown(context.Background()) })
	f.Fuzz(func(t *testing.T, body []byte) {
		job, err := planner.Plan("run", body)
		if err != nil {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("rejected body (%v) answered %d, want 400: %s", err, rec.Code, rec.Body)
			}
			return
		}
		again, err := planner.Plan("run", body)
		if err != nil {
			t.Fatalf("replanning an accepted body failed: %v", err)
		}
		if again.Key != job.Key {
			t.Fatalf("replanning an accepted body diverged: key %q vs %q", job.Key, again.Key)
		}
	})
}
