package mpsoc

import (
	"strings"
	"testing"

	"locsched/internal/layout"
	"locsched/internal/prog"
	"locsched/internal/taskgraph"
)

func TestTimelineRecording(t *testing.T) {
	arr := prog.MustArray("A", 4, 100000)
	g := taskgraph.New()
	var ids []taskgraph.ProcID
	for i := 0; i < 3; i++ {
		iter := prog.Seg("i", 0, 100)
		spec := prog.MustProcessSpec("p", iter, 1, prog.StreamRef(arr, prog.Read, iter, 8, int64(i)*2000))
		id := taskgraph.ProcID{Task: 0, Idx: i}
		if err := g.AddProcess(&taskgraph.Process{ID: id, Spec: spec}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := g.AddDep(ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2)
	cfg.RecordTimeline = true
	res, err := runOnce(g, &fifoDispatcher{}, layout.MustPack(32, arr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) != 3 {
		t.Fatalf("recorded %d segments, want 3", len(res.Timeline))
	}
	for _, s := range res.Timeline {
		if s.End <= s.Start {
			t.Errorf("segment %+v has non-positive duration", s)
		}
		if !s.Completed {
			t.Errorf("segment %+v should be a completion (no preemption here)", s)
		}
		if s.End > res.Cycles {
			t.Errorf("segment %+v ends after makespan %d", s, res.Cycles)
		}
	}
	// Dependent segment starts after its predecessor's end.
	var seg0, seg1 *Segment
	for i := range res.Timeline {
		switch res.Timeline[i].Proc {
		case ids[0]:
			seg0 = &res.Timeline[i]
		case ids[1]:
			seg1 = &res.Timeline[i]
		}
	}
	if seg0 == nil || seg1 == nil {
		t.Fatal("missing segments")
	}
	if seg1.Start < seg0.End {
		t.Errorf("dependent segment starts at %d before predecessor ends at %d", seg1.Start, seg0.End)
	}

	out := res.FormatTimeline(60)
	if !strings.Contains(out, "core 0") || !strings.Contains(out, "core 1") {
		t.Errorf("timeline rendering missing cores:\n%s", out)
	}
	if !strings.Contains(out, "0.0") {
		t.Errorf("timeline rendering missing process label:\n%s", out)
	}
}

func TestTimelineOffByDefault(t *testing.T) {
	g, am := singleProcGraph(t, 10, 1, 0)
	res, err := runOnce(g, &fifoDispatcher{}, am, testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) != 0 {
		t.Error("timeline should be empty unless RecordTimeline is set")
	}
	if !strings.Contains(res.FormatTimeline(40), "no timeline") {
		t.Error("empty timeline should render a hint")
	}
}

func TestTimelinePreemptionSegments(t *testing.T) {
	g, am := singleProcGraph(t, 200, 8, 1)
	cfg := testConfig(1)
	cfg.RecordTimeline = true
	res, err := runOnce(g, &fifoDispatcher{quantum: 500}, am, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) < 2 {
		t.Fatalf("preempted run should record multiple segments, got %d", len(res.Timeline))
	}
	completed := 0
	for _, s := range res.Timeline {
		if s.Completed {
			completed++
		}
	}
	if completed != 1 {
		t.Errorf("exactly one segment should complete, got %d", completed)
	}
}
