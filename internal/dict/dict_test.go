package dict

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rpdbscan/internal/geom"
	"rpdbscan/internal/grid"

	"rpdbscan/internal/testutil"
)

func randomPoints(r *rand.Rand, n, dim int, span float64) *geom.Points {
	p := geom.NewPoints(dim, n)
	row := make([]float64, dim)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = r.Float64() * span
		}
		p.Append(row)
	}
	return p
}

func buildDict(pts *geom.Points, eps, rho float64, maxCells int) *Dictionary {
	g := grid.Build(pts, eps)
	p := Params{Eps: eps, Rho: rho, Dim: pts.Dim}
	entries := make([]CellEntry, 0, g.NumCells())
	for _, c := range g.Cells {
		entries = append(entries, BuildEntry(c, pts, p))
	}
	return Build(entries, p, maxCells)
}

func TestBuildEntryCounts(t *testing.T) {
	pts, _ := geom.FromSlice([][]float64{
		{0.01, 0.01}, {0.02, 0.02}, {0.6, 0.6},
	}, 2)
	eps := 1.0 * math.Sqrt2 // side = 1.0
	g := grid.Build(pts, eps)
	if g.NumCells() != 1 {
		t.Fatalf("NumCells = %d, want 1", g.NumCells())
	}
	p := Params{Eps: eps, Rho: 0.25, Dim: 2}
	var cell *grid.Cell
	for _, c := range g.Cells {
		cell = c
	}
	e := BuildEntry(cell, pts, p)
	if e.Count != 3 {
		t.Fatalf("cell count = %d, want 3", e.Count)
	}
	var sum int32
	for _, sc := range e.Subs {
		sum += sc.Count
	}
	if sum != 3 {
		t.Fatalf("sub-cell counts sum to %d, want 3", sum)
	}
	if len(e.Subs) != 2 {
		t.Fatalf("sub-cells = %d, want 2 (two close points share one)", len(e.Subs))
	}
}

func TestDictionaryTotals(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := randomPoints(r, 500, 3, 10)
	d := buildDict(pts, 1.0, 0.05, 0)
	if got := d.TotalPoints(); got != 500 {
		t.Fatalf("TotalPoints = %d, want 500", got)
	}
	if d.NumCells == 0 || d.NumSubCells < d.NumCells {
		t.Fatalf("implausible totals: cells=%d subs=%d", d.NumCells, d.NumSubCells)
	}
}

func TestSizeBitsFormula(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := randomPoints(r, 300, 2, 8)
	d := buildDict(pts, 0.8, 0.1, 0)
	// Lemma 4.3 with d=2, h-1=4.
	want := int64(32*(d.NumCells+d.NumSubCells) + 32*2*d.NumCells + 2*4*d.NumSubCells)
	if got := d.SizeBits(); got != want {
		t.Fatalf("SizeBits = %d, want %d", got, want)
	}
}

func TestDefragmentBounds(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randomPoints(r, 2000, 2, 50)
	d := buildDict(pts, 1.0, 0.1, 16)
	if len(d.Subs) < 2 {
		t.Fatalf("expected multiple sub-dictionaries, got %d", len(d.Subs))
	}
	totalCells := 0
	for _, sd := range d.Subs {
		if len(sd.Entries) > 16 {
			t.Fatalf("sub-dictionary has %d cells, cap 16", len(sd.Entries))
		}
		totalCells += len(sd.Entries)
	}
	if totalCells != d.NumCells {
		t.Fatalf("defragmentation lost cells: %d vs %d", totalCells, d.NumCells)
	}
	// Cells must remain disjoint across sub-dictionaries.
	seen := map[grid.Key]bool{}
	for _, sd := range d.Subs {
		for i := range sd.Entries {
			k := sd.Entries[i].Key
			if seen[k] {
				t.Fatalf("cell %v appears in two sub-dictionaries", grid.DecodeKey(k))
			}
			seen[k] = true
		}
	}
}

// bruteCount counts points whose sub-cell centre is within eps of p — the
// semantics the querier must match exactly.
func bruteCount(pts *geom.Points, eps, rho float64, p []float64) int64 {
	dim := pts.Dim
	side := grid.Side(eps, dim)
	shift := grid.SubShift(rho)
	subSide := side / float64(int64(1)<<shift)
	origin := make([]float64, dim)
	center := make([]float64, dim)
	var n int64
	for i := 0; i < pts.N(); i++ {
		q := pts.At(i)
		k := grid.KeyFor(q, side)
		k.Origin(side, origin)
		idx := grid.SubIdxFor(q, origin, subSide, shift)
		grid.SubCenter(idx, origin, subSide, shift, center)
		if geom.Dist2(p, center) <= eps*eps {
			n++
		}
	}
	return n
}

func TestQueryMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, tc := range []struct {
		dim      int
		rho      float64
		maxCells int
	}{
		{2, 0.1, 0}, {2, 0.01, 8}, {3, 0.05, 16}, {5, 0.25, 0},
	} {
		pts := randomPoints(r, 400, tc.dim, 6)
		eps := 1.2
		d := buildDict(pts, eps, tc.rho, tc.maxCells)
		q := NewQuerier(d)
		for trial := 0; trial < 25; trial++ {
			p := pts.At(r.Intn(pts.N()))
			want := bruteCount(pts, eps, tc.rho, p)
			if got := q.Count(p); got != want {
				t.Fatalf("dim=%d rho=%v maxCells=%d: Count=%d, want %d",
					tc.dim, tc.rho, tc.maxCells, got, want)
			}
		}
	}
}

func TestQueryNeighborCells(t *testing.T) {
	// Two tight clumps 0.5 apart plus one far point: a query at the first
	// clump must see both clumps' cells but not the far cell.
	rows := [][]float64{
		{0, 0}, {0.05, 0.05}, {0.5, 0}, {0.55, 0.05}, {100, 100},
	}
	pts, _ := geom.FromSlice(rows, 2)
	d := buildDict(pts, 1.0, 0.01, 0)
	q := NewQuerier(d)
	count, cells := q.Query(pts.At(0), true, nil)
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	side := grid.Side(1.0, 2)
	farID, ok := d.IDOf(grid.KeyFor([]float64{100, 100}, side))
	if !ok {
		t.Fatal("far cell missing from dictionary")
	}
	for _, id := range cells {
		if id == farID {
			t.Fatal("far cell returned as neighbor")
		}
	}
	if len(cells) == 0 {
		t.Fatal("no neighbor cells returned")
	}
}

func TestSubDictionarySkipping(t *testing.T) {
	// Spread data widely and bound sub-dictionaries so a local query must
	// skip most of them via Lemma 5.10.
	r := rand.New(rand.NewSource(6))
	pts := randomPoints(r, 3000, 2, 200)
	d := buildDict(pts, 1.0, 0.1, 32)
	if len(d.Subs) < 4 {
		t.Fatalf("want >=4 sub-dictionaries, got %d", len(d.Subs))
	}
	q := NewQuerier(d)
	skipped := false
	for _, sd := range d.Subs {
		skipped = skipped || sd.MBR.Outside(pts.At(0), d.Eps)
	}
	if !skipped {
		t.Fatal("no sub-dictionary is skippable for a local query")
	}
	// Skipping must not change results: compare against single-sub dict.
	d1 := buildDict(pts, 1.0, 0.1, 0)
	q1 := NewQuerier(d1)
	for trial := 0; trial < 30; trial++ {
		p := pts.At(r.Intn(pts.N()))
		if a, b := q.Count(p), q1.Count(p); a != b {
			t.Fatalf("defragmented count %d != single-dict count %d", a, b)
		}
	}
}

// Property (Lemma 5.2 sandwich): the approximate count is bounded by the
// exact neighbourhood counts at radii (1 -/+ rho/2)*eps... up to boundary
// ties, which we avoid by nudging the radii by a tiny epsilon.
func TestQuerySandwichProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(3)
		rho := []float64{0.25, 0.1, 0.05}[r.Intn(3)]
		pts := randomPoints(r, 200, dim, 4)
		eps := 0.5 + r.Float64()
		d := buildDict(pts, eps, rho, 0)
		q := NewQuerier(d)
		p := pts.At(r.Intn(pts.N()))
		got := q.Count(p)
		const tie = 1e-9
		lo, hi := int64(0), int64(0)
		loR := (1 - rho/2) * eps
		hiR := (1 + rho/2) * eps
		for i := 0; i < pts.N(); i++ {
			dd := geom.Dist(p, pts.At(i))
			if dd <= loR-tie {
				lo++
			}
			if dd <= hiR+tie {
				hi++
			}
		}
		return lo <= got && got <= hi
	}
	if err := quick.Check(f, testutil.QuickConfig(t, 212, 120)); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, dim := range []int{2, 3, 13} {
		pts := randomPoints(r, 300, dim, 5)
		d := buildDict(pts, 1.5, 0.01, 8)
		buf := d.Encode()
		got, err := Decode(buf, 8)
		if err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		if got.NumCells != d.NumCells || got.NumSubCells != d.NumSubCells {
			t.Fatalf("dim %d: totals changed: %d/%d vs %d/%d",
				dim, got.NumCells, got.NumSubCells, d.NumCells, d.NumSubCells)
		}
		if got.TotalPoints() != d.TotalPoints() {
			t.Fatalf("dim %d: point totals changed", dim)
		}
		// Entry-level equality, order-independent.
		collect := func(x *Dictionary) map[grid.Key][]SubCell {
			m := map[grid.Key][]SubCell{}
			for _, sd := range x.Subs {
				for i := range sd.Entries {
					m[sd.Entries[i].Key] = sd.Entries[i].Subs
				}
			}
			return m
		}
		a, b := collect(d), collect(got)
		for k, subs := range a {
			bs, ok := b[k]
			if !ok || len(bs) != len(subs) {
				t.Fatalf("dim %d: cell %v mismatch", dim, grid.DecodeKey(k))
			}
			sort.Slice(bs, func(i, j int) bool {
				if bs[i].Idx.Hi != bs[j].Idx.Hi {
					return bs[i].Idx.Hi < bs[j].Idx.Hi
				}
				return bs[i].Idx.Lo < bs[j].Idx.Lo
			})
			for i := range subs {
				if subs[i] != bs[i] {
					t.Fatalf("dim %d: sub-cell %d differs", dim, i)
				}
			}
		}
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pts := randomPoints(r, 50, 2, 5)
	d := buildDict(pts, 1.0, 0.1, 0)
	buf := d.Encode()
	if _, err := Decode(buf[:len(buf)-3], 0); err == nil {
		t.Fatal("Decode accepted truncated buffer")
	}
	if _, err := Decode(append(buf, 0), 0); err == nil {
		t.Fatal("Decode accepted trailing bytes")
	}
	bad := append([]byte("XXXX"), buf[4:]...)
	if _, err := Decode(bad, 0); err == nil {
		t.Fatal("Decode accepted bad magic")
	}
}

// The wire checksum must reject any body corruption outright, and Reseal
// must reopen the parser for tests that corrupt bytes on purpose.
func TestDecodeChecksumGate(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	pts := randomPoints(r, 50, 2, 5)
	d := buildDict(pts, 1.0, 0.1, 0)
	buf := d.Encode()
	for _, pos := range []int{12, 16, len(buf) / 2, len(buf) - 1} {
		mut := append([]byte(nil), buf...)
		mut[pos] ^= 0x01
		_, err := Decode(mut, 0)
		if err == nil {
			t.Fatalf("flip at byte %d accepted", pos)
		}
		if !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("flip at byte %d: got %v, want checksum mismatch", pos, err)
		}
	}
	// Corrupting the checksum field itself is also a mismatch.
	mut := append([]byte(nil), buf...)
	mut[5] ^= 0xff
	if _, err := Decode(mut, 0); err == nil {
		t.Fatal("corrupt checksum field accepted")
	}
	// Reseal restores decodability of an intact body...
	if _, err := Decode(Reseal(mut), 0); err != nil {
		t.Fatalf("resealed intact body rejected: %v", err)
	}
	// ...and routes a corrupted body past the gate into the validators.
	mut = append([]byte(nil), buf...)
	mut[len(mut)-1] ^= 0xff // a sub-cell count: header still parses
	if _, err := Decode(Reseal(mut), 0); err != nil &&
		strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatal("Reseal did not bypass the checksum gate")
	}
}

// TestDecodeRejectsBrokenInvariants pins the entry checks behind the
// checksum gate: a resealed payload whose cells break an invariant is
// rejected, naming the cell.
func TestDecodeRejectsBrokenInvariants(t *testing.T) {
	for i, bad := range invalidEntries() {
		buf := EncodeEntries(bad, Params{Eps: 1, Rho: 0.05, Dim: 3})
		if _, err := Decode(buf, 0); err == nil || !strings.Contains(err.Error(), "cell 0") {
			t.Errorf("case %d: Decode = %v, want an error naming cell 0", i, err)
		}
	}
}

// TestDecodeEveryByteFlip is the every-byte-flip property of the wire
// format: flipping any single byte is caught by the checksum; resealed, the
// flip either fails a validator or yields a dictionary whose entries still
// satisfy every invariant Decode promises and whose re-encoding decodes to
// the same totals.
func TestDecodeEveryByteFlip(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	pts := randomPoints(r, 40, 3, 4)
	buf := buildDict(pts, 1.0, 0.1, 0).Encode()
	for pos := range buf {
		mut := append([]byte(nil), buf...)
		mut[pos] ^= 0xff
		if _, err := Decode(mut, 0); err == nil {
			t.Fatalf("flip at byte %d accepted without reseal", pos)
		}
		d, err := Decode(Reseal(mut), 0)
		if err != nil {
			continue
		}
		if err := checkEntryInvariants(d); err != nil {
			t.Fatalf("flip at byte %d: %v", pos, err)
		}
		again, err := Decode(d.Encode(), 0)
		if err != nil {
			t.Fatalf("flip at byte %d: re-encode rejected: %v", pos, err)
		}
		if again.NumCells != d.NumCells || again.NumSubCells != d.NumSubCells ||
			again.TotalPoints() != d.TotalPoints() {
			t.Fatalf("flip at byte %d: round trip changed totals", pos)
		}
	}
}

func TestCellIDsAreDenseAndSorted(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pts := randomPoints(r, 500, 2, 20)
	d := buildDict(pts, 1.0, 0.1, 16)
	if len(d.Keys) != d.NumCells {
		t.Fatalf("Keys has %d entries, want %d", len(d.Keys), d.NumCells)
	}
	for i := 1; i < len(d.Keys); i++ {
		if d.Keys[i-1] >= d.Keys[i] {
			t.Fatal("Keys not strictly sorted")
		}
	}
	// IDOf(Keys[i]) == i and Entry(i).ID == i across defragmented
	// sub-dictionaries.
	for i, k := range d.Keys {
		id, ok := d.IDOf(k)
		if !ok || int(id) != i {
			t.Fatalf("IDOf(Keys[%d]) = %d,%v", i, id, ok)
		}
		if e := d.Entry(id); e == nil || e.ID != id || e.Key != k {
			t.Fatalf("Entry(%d) inconsistent", id)
		}
	}
}

func TestIDsStableAcrossDecode(t *testing.T) {
	// Every decoded replica must agree on ids — the invariant the cell
	// graphs rely on.
	r := rand.New(rand.NewSource(12))
	pts := randomPoints(r, 400, 3, 10)
	d := buildDict(pts, 1.0, 0.05, 8)
	buf := d.Encode()
	d2, err := Decode(buf, 32) // different defragmentation bound
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Keys) != len(d.Keys) {
		t.Fatal("cell counts differ")
	}
	for i := range d.Keys {
		if d.Keys[i] != d2.Keys[i] {
			t.Fatalf("id %d maps to different keys across replicas", i)
		}
	}
}

func TestLookup(t *testing.T) {
	pts, _ := geom.FromSlice([][]float64{{0.1, 0.1}, {5, 5}}, 2)
	d := buildDict(pts, 1.0, 0.5, 1)
	side := grid.Side(1.0, 2)
	if e := d.Lookup(grid.KeyFor([]float64{0.1, 0.1}, side)); e == nil || e.Count != 1 {
		t.Fatalf("Lookup existing cell = %+v", e)
	}
	if e := d.Lookup(grid.KeyFor([]float64{99, 99}, side)); e != nil {
		t.Fatal("Lookup returned entry for empty cell")
	}
}
