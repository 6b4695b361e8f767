package dict

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"rpdbscan/internal/grid"
)

// FuzzDecode checks that Decode never panics and never accepts input that
// fails to round-trip: the broadcast payload crosses worker boundaries, so
// robust parsing is a hard requirement.
//
// The wire checksum would swallow almost every mutation at the gate and
// starve the parser of coverage, so each input is also tried resealed
// (checksum patched to match the mutated body) to reach the code behind
// the gate.
func FuzzDecode(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	pts := randomPoints(r, 200, 3, 10)
	d := buildDict(pts, 1.0, 0.05, 8)
	valid := d.Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("RPD1")) // previous wire magic: must be rejected, not parsed
	f.Add([]byte("RPD2"))
	f.Add([]byte{})
	mut := bytes.Clone(valid)
	mut[20] ^= 0xff
	f.Add(mut)
	f.Add(Reseal(bytes.Clone(mut)))
	// Well-framed payloads that break the entry invariants: a cell without
	// sub-cells, a Count that is not the sub-cell sum, a non-positive
	// sub-cell count, an index beyond its bits. Decode must reject each.
	for _, bad := range invalidEntries() {
		f.Add(EncodeEntries(bad, Params{Eps: 1, Rho: 0.05, Dim: 3}))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, buf := range [][]byte{data, Reseal(bytes.Clone(data))} {
			got, err := Decode(buf, 4)
			if err != nil {
				continue // rejected input is fine; panics are not
			}
			if err := checkEntryInvariants(got); err != nil {
				t.Fatalf("accepted payload: %v", err)
			}
			// Accepted input must re-encode to a decodable payload with the
			// same totals.
			again, err := Decode(got.Encode(), 4)
			if err != nil {
				t.Fatalf("re-encode of accepted payload failed: %v", err)
			}
			if again.NumCells != got.NumCells || again.NumSubCells != got.NumSubCells {
				t.Fatalf("round trip changed totals: %d/%d vs %d/%d",
					again.NumCells, again.NumSubCells, got.NumCells, got.NumSubCells)
			}
		}
	})
}

// invalidEntries returns entry sets that frame correctly but violate the
// invariants Decode checks, one violation each.
func invalidEntries() [][]CellEntry {
	key := grid.EncodeKey([]int32{1, 2, 3})
	sub := func(lo uint64, n int32) SubCell { return SubCell{Idx: grid.SubIdx{Lo: lo}, Count: n} }
	return [][]CellEntry{
		{{Key: key, Count: 2}},                                         // no sub-cells
		{{Key: key, Count: 5, Subs: []SubCell{sub(1, 3)}}},             // Count > sum
		{{Key: key, Count: 1, Subs: []SubCell{sub(1, 1), sub(2, 1)}}},  // Count < sum
		{{Key: key, Count: 2, Subs: []SubCell{sub(1, 3), sub(2, -1)}}}, // negative sub-cell
		{{Key: key, Count: 2, Subs: []SubCell{sub(1, 2), sub(2, 0)}}},  // empty sub-cell
		{{Key: key, Count: 1, Subs: []SubCell{sub(1<<15, 1)}}},         // index beyond 3*5 bits
	}
}

// checkEntryInvariants verifies what a successful Decode guarantees: every
// cell has sub-cells, all with positive counts summing to the cell's Count.
func checkEntryInvariants(d *Dictionary) error {
	for _, sd := range d.Subs {
		for _, e := range sd.Entries {
			if len(e.Subs) == 0 {
				return fmt.Errorf("cell %v has no sub-cells", grid.DecodeKey(e.Key))
			}
			var sum int64
			for _, sc := range e.Subs {
				if sc.Count <= 0 {
					return fmt.Errorf("cell %v has a sub-cell count %d", grid.DecodeKey(e.Key), sc.Count)
				}
				sum += int64(sc.Count)
			}
			if sum != int64(e.Count) {
				return fmt.Errorf("cell %v count %d != sub-cell sum %d", grid.DecodeKey(e.Key), e.Count, sum)
			}
		}
	}
	return nil
}
