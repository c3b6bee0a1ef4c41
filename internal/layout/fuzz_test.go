package layout

import "testing"

// FuzzPressure decodes the input into a small layout instance (geometry,
// arrays, pack alignment, footprints, reference counts, threshold) and
// requires the interval-arithmetic block counts, Pressure and the
// incremental SelectRelayoutVerified to equal the element-wise oracles.
func FuzzPressure(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 2, 4, 0, 5, 2, 3, 1, 2, 0, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := drawInstance(&byteChooser{data: data})
		if _, err := in.check(); err != nil {
			t.Fatalf("%+v: %v", in.geom, err)
		}
	})
}
