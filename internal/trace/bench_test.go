package trace

import (
	"testing"

	"locsched/internal/layout"
	"locsched/internal/prog"
)

func benchSpec() (*prog.ProcessSpec, layout.AddressMap) {
	arr := prog.MustArray("A", 4, 1<<20)
	iter := prog.Seg("i", 0, 4096)
	spec := prog.MustProcessSpec("p", iter, 1,
		prog.StreamRef(arr, prog.Read, iter, 1, 0),
		prog.StreamRef(arr, prog.Write, iter, 2, 64),
	)
	return spec, layout.MustPack(32, arr)
}

// BenchmarkTraceCompileRLE measures compiling one (spec, address map)
// pair into the strided run-length encoding, and reports its resident
// bytes next to those of the same trace materialized access by access
// (the stream-memory reduction the encoding buys).
func BenchmarkTraceCompileRLE(b *testing.B) {
	spec, am := benchSpec()
	var s *RLEStream
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		s, err = compileRLE(spec, am)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Len()), "accesses")
	b.ReportMetric(float64(flatBytes(s)), "flat_bytes")
	b.ReportMetric(float64(s.MemBytes()), "rle_bytes")
}

// BenchmarkRLECursorNext measures per-access consumption of the encoded
// stream (the differential-test path; the simulator consumes whole runs
// instead).
func BenchmarkRLECursorNext(b *testing.B) {
	spec, am := benchSpec()
	cur, err := NewGenerator(am).NewRLECursor(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cur.Next(); !ok {
			cur.Reset()
		}
	}
}
