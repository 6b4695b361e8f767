package frame

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestSum64MatchesHashFNV pins Sum64 to the standard library's FNV-1a and
// Add to its continuation over every split point: the checked-in wire
// fixtures of every format depend on these exact values.
func TestSum64MatchesHashFNV(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 64, 1000} {
		b := make([]byte, n)
		r.Read(b)
		h := fnv.New64a()
		h.Write(b)
		want := h.Sum64()
		if got := Sum64(b); got != want {
			t.Fatalf("n=%d: Sum64 = %016x, hash/fnv = %016x", n, got, want)
		}
		for cut := 0; cut <= n; cut++ {
			if got := Add(Sum64(b[:cut]), b[cut:]); got != want {
				t.Fatalf("n=%d cut=%d: Add = %016x, want %016x", n, cut, got, want)
			}
		}
	}
}
