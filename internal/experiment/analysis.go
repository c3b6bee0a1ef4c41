package experiment

import (
	"fmt"

	"locsched/internal/cache"
	"locsched/internal/mpsoc"
	"locsched/internal/sched"
	"locsched/internal/sharing"
)

// The scheduling analysis of a family. Sharing matrices, LS assignments
// and LSM mappings are pure functions of the EPG (and, for LSM, the base
// layout and cache geometry); experiments re-run the same EPG under many
// policies, parameter points and benchmark iterations, so recomputing
// the analysis per run dominated cells whose simulation is fast. Each
// result lives in the family it was computed on (family.go), so
// content-equal workloads arriving as fresh objects hit it through
// interning, and it is dropped with its family.

// sharingMatrix returns the family's sharing matrix, building a miss with
// the blocked parallel construction on `workers` goroutines
// (bit-identical to the sequential path for any count).
func (f *family) sharingMatrix(workers int) (*sharing.Matrix, error) {
	families.Lock()
	fm := f.matrix
	if fm != nil {
		families.stats.MatrixHits++
	} else {
		families.stats.MatrixMisses++
	}
	families.Unlock()
	if fm != nil {
		return fm.m, nil
	}
	an := sharing.NewAnalyzer()
	m, err := an.MatrixParallel(f.g, workers)
	if err != nil {
		return nil, err
	}
	families.Lock()
	defer families.Unlock()
	if f.matrix == nil {
		f.matrix = &familyMatrix{m: m, an: an}
		chargeLocked(f.gen)
	}
	return f.matrix.m, nil
}

// analyzer returns the analyzer behind the family's sharing matrix, or
// nil before the matrix exists. It counts neither a hit nor a miss.
func (f *family) analyzer() *sharing.Analyzer {
	families.Lock()
	defer families.Unlock()
	if f.matrix == nil {
		return nil
	}
	return f.matrix.an
}

// localitySchedule returns the family's LS assignment on the given core
// count. biasKey/bias carry the machine-model placement hook (see
// machineBias): the key separates biased and unbiased schedules of one
// graph, and ("", nil) — the homogeneous machine — schedules exactly as
// before the hook existed.
func (f *family) localitySchedule(cores, workers int, biasKey string, bias sched.CoreBias) (*sched.Assignment, error) {
	return derive(f, f.ls, lsKey{cores, biasKey}, &families.stats.LSHits, &families.stats.LSMisses,
		func() (*sched.Assignment, error) {
			m, err := f.sharingMatrix(workers)
			if err != nil {
				return nil, err
			}
			return sched.LocalityScheduleBiased(f.g, m, cores, bias)
		})
}

// lsmMapping returns the family's LSM mapping — assignment plus
// re-laid-out address map — on the given machine. A miss obtains the LS
// assignment through localitySchedule and threads it into NewLSM, so
// LS+LSM figure columns on the same (graph, cores) run LocalitySchedule
// (and the sharing matrix behind it) exactly once, whichever policy's
// cell lands first. NewLSM also reads its data spaces from the matrix's
// analyzer instead of computing them again.
func (f *family) lsmMapping(cores int, align int64, geom cache.Geometry, workers int, biasKey string, bias sched.CoreBias) (*sched.MappingResult, error) {
	key := lsmKey{lsKey{cores, biasKey}, align, geom}
	return derive(f, f.lsm, key, &families.stats.LSMHits, &families.stats.LSMMisses,
		func() (*sched.MappingResult, error) {
			base, err := f.base(align)
			if err != nil {
				return nil, err
			}
			asg, err := f.localitySchedule(cores, workers, biasKey, bias)
			if err != nil {
				return nil, err
			}
			_, mapping, err := sched.NewLSM(f.g, nil, asg, cores, base.packed, geom, f.analyzer())
			return mapping, err
		})
}

// machineBias derives the scheduling layer's placement hook from the
// machine model. On a homogeneous machine it returns ("", nil), which
// leaves every analysis key and schedule byte-identical to the
// pre-Machine code; otherwise it returns a closure over the per-core
// placement-cost table (mpsoc.Config.CoreCostTable — effective hit
// latency plus base miss penalty, lower is better) and a key naming
// everything the table depends on, for the family's analysis keys.
func machineBias(cfg mpsoc.Config) (string, sched.CoreBias, error) {
	if cfg.Machine.Homogeneous() {
		return "", nil, nil
	}
	costs, err := cfg.CoreCostTable()
	if err != nil {
		return "", nil, err
	}
	key := fmt.Sprintf("speeds=%s,topo=%s,hop=%d,lat=%d.%d,cores=%d",
		cfg.Machine.SpeedClasses, cfg.Machine.Topology, cfg.Machine.HopPenalty,
		cfg.HitLatency, cfg.MissPenalty, cfg.Cores)
	return key, func(core int) int64 { return costs[core] }, nil
}
