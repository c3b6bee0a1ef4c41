package mpsoc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"locsched/internal/layout"
	"locsched/internal/sched"
	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
	"locsched/internal/workload"
)

// timelinePin is the SHA-256 TestTimelinePinned computes. It changes
// when any segment's core, process, start, end or completion flag
// changes, or any Result counter does: the event order itself, which a
// Result-only golden or an oracle sharing the event loop cannot see.
const timelinePin = "5b2d700c7d2f37e8cf27c4537063381ede76fd428e88676a64a43f9487d8a418"

// hashResult writes every Timeline segment and every Result counter to h.
func hashResult(h hash.Hash, res *Result) {
	w := func(v any) { _ = binary.Write(h, binary.LittleEndian, v) }
	h.Write([]byte(res.Policy))
	w([]int64{res.Cycles, res.Preemptions, res.AffineResumes, res.Migrations, res.IdleCycles})
	w(res.Total)
	for _, st := range res.PerCore {
		w([]int64{st.BusyCycles, st.Segments, st.Procs})
		w(st.Cache)
	}
	ids := make([]taskgraph.ProcID, 0, len(res.Completion))
	for id := range res.Completion {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Task != ids[j].Task {
			return ids[i].Task < ids[j].Task
		}
		return ids[i].Idx < ids[j].Idx
	})
	for _, id := range ids {
		w([]int64{int64(id.Task), int64(id.Idx), res.Completion[id]})
	}
	w(int64(len(res.Timeline)))
	for _, s := range res.Timeline {
		w([]int64{int64(s.Core), int64(s.Proc.Task), int64(s.Proc.Idx), s.Start, s.End})
		w(s.Completed)
	}
}

// TestTimelinePinned pins the complete event order of RS, RRS, ARR and
// LS on Table 1 mixes at 32 and 128 cores (on the Table 2 machine, a
// bus-contended one and a heterogeneous mesh), under the inline
// executor and the pooled one.
func TestTimelinePinned(t *testing.T) {
	type machine struct {
		name  string
		cores int
		mod   func(*Config)
	}
	machines := []machine{
		{"Table2", 32, func(*Config) {}},
		{"Table2", 128, func(*Config) {}},
		{"Bus", 32, func(c *Config) { c.BusFactor = 0.05 }},
		{"Hetero", 32, func(c *Config) {
			c.Machine = Machine{SpeedClasses: "1,4", Topology: TopoMesh, HopPenalty: 8}
		}},
	}
	type cell struct {
		name  string
		g     *taskgraph.Graph
		am    layout.AddressMap
		cfg   Config
		disps []func() Dispatcher
	}
	var cells []cell
	for _, m := range machines {
		apps, err := workload.BuildMany(m.cores/4, workload.Params{Scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		g, arrays, err := workload.Combine(apps...)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Cores = m.cores
		cfg.RecordTimeline = true
		m.mod(&cfg)
		am, err := layout.Pack(cfg.Cache.BlockSize, arrays...)
		if err != nil {
			t.Fatal(err)
		}
		mat, err := sharing.ComputeMatrixParallel(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		asg, err := sched.LocalitySchedule(g, mat, cfg.Cores)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell{fmt.Sprintf("%s/%dc", m.name, m.cores), g, am, cfg, []func() Dispatcher{
			func() Dispatcher { return sched.NewRandom(1) },
			func() Dispatcher { return sched.MustRoundRobin(2048) },
			func() Dispatcher {
				return sched.MustAffinityRR(sched.AffinityConfig{Quantum: 2048, Window: 256, QBatch: 8})
			},
			func() Dispatcher { return sched.NewStaticMode("LS", asg, sched.StealWhenIdle) },
		}})
	}
	for _, workers := range []int{0, 2} {
		h := sha256.New()
		for _, c := range cells {
			r, err := NewRunner(c.g, c.am, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, mk := range c.disps {
				res, err := r.RunParallel(mk(), workers)
				if err != nil {
					t.Fatalf("%s, %d workers: %v", c.name, workers, err)
				}
				hashResult(h, res)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != timelinePin {
			t.Errorf("%d workers: timeline digest %s, want %s", workers, got, timelinePin)
		}
	}
}
