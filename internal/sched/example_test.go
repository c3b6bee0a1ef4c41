package sched_test

import (
	"fmt"

	"locsched/internal/prog"
	"locsched/internal/sched"
	"locsched/internal/sharing"
	"locsched/internal/taskgraph"
)

// ExampleLocalitySchedule schedules a two-chain workload on two cores:
// the greedy keeps each producer/consumer chain on one core.
func ExampleLocalitySchedule() {
	arr := prog.MustArray("A", 4, 4096)
	g := taskgraph.New()
	for lane := int64(0); lane < 2; lane++ {
		prodIter := prog.Seg("i", lane*1024, lane*1024+1024)
		prod := prog.MustProcessSpec(fmt.Sprintf("prod%d", lane), prodIter, 1,
			prog.StreamRef(arr, prog.Write, prodIter, 1, 0))
		consIter := prog.Seg("i", lane*1024, lane*1024+1024)
		cons := prog.MustProcessSpec(fmt.Sprintf("cons%d", lane), consIter, 1,
			prog.StreamRef(arr, prog.Read, consIter, 1, 0))
		p := taskgraph.ProcID{Task: 0, Idx: int(2 * lane)}
		c := taskgraph.ProcID{Task: 0, Idx: int(2*lane + 1)}
		g.AddProcess(&taskgraph.Process{ID: p, Spec: prod})
		g.AddProcess(&taskgraph.Process{ID: c, Spec: cons})
		g.AddDep(p, c)
	}
	m, _ := sharing.ComputeMatrixParallel(g, 1)
	asg, _ := sched.LocalitySchedule(g, m, 2)
	fmt.Println(asg)
	// Output:
	// core 0: P0.0 P0.1
	// core 1: P0.2 P0.3
}
