package clean

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestDirtySetMatchesReference drives random mark/take/clear sequences
// through the bitset dirty set and a map-plus-sort reference, on sizes
// around the 64-bit word boundaries. Marks land on a word's last and next
// bit (63, 64) and on the last tuple n-1 as often as on random ones, and
// every sequence marks before its first take, which must still return the
// start state's identity listing.
func TestDirtySetMatchesReference(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130, 1000} {
		for seed := int64(0); seed < 50; seed++ {
			rng := rand.New(rand.NewSource(seed))
			all := identity(n)
			s := newDirtySet(all)
			refAll, ref := true, make(map[int]bool)
			edges := []int{0, 63, 64, n - 1}
			mark := func() {
				i := rng.Intn(n)
				if k := rng.Intn(2 * len(edges)); k < len(edges) && edges[k] < n {
					i = edges[k]
				}
				s.mark(i)
				ref[i] = true
			}
			for k := rng.Intn(4); k >= 0; k-- {
				mark()
			}
			for step := 0; step < 200; step++ {
				switch op := rng.Intn(10); {
				case op == 0:
					s.clear()
					ref = make(map[int]bool)
				case op < 3 || step == 0:
					var want []int
					if refAll {
						want = all
					} else {
						for i := range ref { //det:ok maporder the keys are sorted below
							want = append(want, i)
						}
						sort.Ints(want)
					}
					refAll, ref = false, make(map[int]bool)
					if got := s.take(); !slices.Equal(got, want) {
						t.Fatalf("n=%d seed=%d step %d: take = %v, want %v", n, seed, step, got, want)
					}
				default:
					mark()
				}
			}
		}
	}
}
