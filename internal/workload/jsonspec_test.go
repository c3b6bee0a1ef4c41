package workload

import (
	"strings"
	"testing"

	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
)

const validSpec = `{
  "tasks": [{
    "name": "pipeline",
    "arrays": [
      {"name": "in",  "elems": 1024, "elem_bytes": 4},
      {"name": "out", "elems": 1024}
    ],
    "procs": [
      {"name": "produce", "iter_lo": 0, "iter_hi": 512, "compute": 2,
       "refs": [{"array": "in", "kind": "r", "stride": 1, "offset": 0},
                {"array": "out", "kind": "w", "stride": 1, "offset": 0}]},
      {"name": "consume", "iter_lo": 0, "iter_hi": 512, "compute": 1,
       "refs": [{"array": "out", "kind": "r", "stride": 1, "offset": 0}],
       "deps": [0]}
    ]
  },
  {
    "name": "other",
    "arrays": [{"name": "x", "elems": 256}],
    "procs": [
      {"iter_lo": 0, "iter_hi": 128,
       "refs": [{"array": "x", "stride": 2}]}
    ]
  }]
}`

func TestFromJSONValid(t *testing.T) {
	apps, err := FromJSON(strings.NewReader(validSpec))
	if err != nil {
		t.Fatalf("FromJSON: %v", err)
	}
	if len(apps) != 2 {
		t.Fatalf("got %d apps, want 2", len(apps))
	}
	p := apps[0]
	if p.Name != "pipeline" || p.Procs() != 2 || len(p.Arrays) != 2 {
		t.Errorf("pipeline app wrong: %+v", p)
	}
	if p.Graph.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1", p.Graph.NumEdges())
	}
	// Default element size is 4 bytes.
	if p.Arrays[1].Elem != 4 {
		t.Errorf("default elem bytes = %d, want 4", p.Arrays[1].Elem)
	}
	// Sharing between producer and consumer via "out".
	m, err := sharing.ComputeMatrixParallel(p.Graph, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Shared(taskgraph.ProcID{Task: 0, Idx: 0}, taskgraph.ProcID{Task: 0, Idx: 1})
	if got != 512*4 {
		t.Errorf("producer/consumer share %d bytes, want 2048", got)
	}
	// Unnamed proc gets a default name; second task independent.
	if apps[1].Procs() != 1 {
		t.Errorf("other app procs = %d, want 1", apps[1].Procs())
	}
	// Combined EPG must be valid (distinct task IDs by position).
	epg, _, err := Combine(apps...)
	if err != nil {
		t.Fatal(err)
	}
	if epg.Len() != 3 {
		t.Errorf("EPG procs = %d, want 3", epg.Len())
	}
}

func TestFromJSONErrors(t *testing.T) {
	cases := map[string]string{
		"empty tasks":     `{"tasks": []}`,
		"not json":        `{`,
		"unknown field":   `{"tasks": [], "bogus": 1}`,
		"missing name":    `{"tasks": [{"arrays": [], "procs": []}]}`,
		"duplicate array": `{"tasks": [{"name": "t", "arrays": [{"name":"a","elems":8},{"name":"a","elems":8}], "procs": []}]}`,
		"unknown array": `{"tasks": [{"name": "t", "arrays": [],
			"procs": [{"iter_lo":0,"iter_hi":4,"refs":[{"array":"nope"}]}]}]}`,
		"bad kind": `{"tasks": [{"name": "t", "arrays": [{"name":"a","elems":8}],
			"procs": [{"iter_lo":0,"iter_hi":4,"refs":[{"array":"a","kind":"x"}]}]}]}`,
		"empty iter": `{"tasks": [{"name": "t", "arrays": [{"name":"a","elems":8}],
			"procs": [{"iter_lo":4,"iter_hi":4,"refs":[{"array":"a"}]}]}]}`,
		"dep out of range": `{"tasks": [{"name": "t", "arrays": [{"name":"a","elems":8}],
			"procs": [{"iter_lo":0,"iter_hi":4,"refs":[{"array":"a"}],"deps":[5]}]}]}`,
		"self dep": `{"tasks": [{"name": "t", "arrays": [{"name":"a","elems":8}],
			"procs": [{"iter_lo":0,"iter_hi":4,"refs":[{"array":"a"}],"deps":[0]}]}]}`,
		"no refs": `{"tasks": [{"name": "t", "arrays": [{"name":"a","elems":8}],
			"procs": [{"iter_lo":0,"iter_hi":4}]}]}`,
	}
	for name, spec := range cases {
		if _, err := FromJSON(strings.NewReader(spec)); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}
