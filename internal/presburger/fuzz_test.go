package presburger

import "testing"

// FuzzBasicSetEnumeration builds random small 2-D sets (a box plus one
// extra affine constraint) and checks that enumeration agrees with
// membership and cardinality, and that the concatenated Rows intervals
// are exactly the Points sequence.
func FuzzBasicSetEnumeration(f *testing.F) {
	f.Add(int8(0), int8(5), int8(0), int8(5), int8(1), int8(1), int8(3), true)
	f.Add(int8(-3), int8(4), int8(-2), int8(6), int8(2), int8(-1), int8(0), false)
	f.Add(int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), int8(0), true)
	f.Fuzz(func(t *testing.T, lo0, w0, lo1, w1, c0, c1, k int8, eq bool) {
		sp := MustSpace("i", "j")
		width0 := int64(w0%8) + 1
		width1 := int64(w1%8) + 1
		box := MustRect(sp,
			[]int64{int64(lo0), int64(lo1)},
			[]int64{int64(lo0) + width0, int64(lo1) + width1},
		)
		expr := Term(2, 0, int64(c0)).Add(Term(2, 1, int64(c1))).AddConst(int64(k))
		var con Constraint
		if eq {
			con = EQZero(expr)
		} else {
			con = GEZero(expr)
		}
		set := box.MustWith(con)

		// Brute-force the box and compare.
		var want int64
		for i := int64(lo0); i < int64(lo0)+width0; i++ {
			for j := int64(lo1); j < int64(lo1)+width1; j++ {
				if set.Contains([]int64{i, j}) {
					want++
				}
			}
		}
		got, err := set.Card()
		if err != nil {
			t.Fatalf("Card: %v", err)
		}
		if got != want {
			t.Fatalf("Card = %d, brute force = %d for %v", got, want, set)
		}
		var enumerated int64
		err = set.Points(func(pt []int64) bool {
			if !set.Contains(pt) {
				t.Fatalf("enumerated point %v not contained in %v", pt, set)
			}
			enumerated++
			return true
		})
		if err != nil {
			t.Fatalf("Points: %v", err)
		}
		if enumerated != want {
			t.Fatalf("Points yielded %d, brute force = %d", enumerated, want)
		}

		var pts, rows [][2]int64
		if err := set.Points(func(pt []int64) bool {
			pts = append(pts, [2]int64{pt[0], pt[1]})
			return true
		}); err != nil {
			t.Fatalf("Points: %v", err)
		}
		if err := set.Rows(func(pt []int64, lo, hi int64) bool {
			if lo >= hi {
				t.Fatalf("Rows yielded empty row [%d,%d) at prefix %d", lo, hi, pt[0])
			}
			for j := lo; j < hi; j++ {
				rows = append(rows, [2]int64{pt[0], j})
			}
			return true
		}); err != nil {
			t.Fatalf("Rows: %v", err)
		}
		if len(rows) != len(pts) {
			t.Fatalf("Rows cover %d points, Points yielded %d", len(rows), len(pts))
		}
		for i := range pts {
			if rows[i] != pts[i] {
				t.Fatalf("point %d: Rows %v, Points %v", i, rows[i], pts[i])
			}
		}
	})
}
