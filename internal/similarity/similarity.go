// Package similarity implements the string similarity predicates used by
// matching dependencies (Section 2.2 of the paper): edit distance, Jaro and
// Jaro-Winkler similarity, q-gram Jaccard similarity, and longest common
// substring length.
package similarity

// Levenshtein returns the edit distance between a and b: the minimum number
// of single-character insertions, deletions and substitutions converting a
// into b. It operates on bytes, which is exact for the ASCII data used in
// the experiments.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// bandOnStack is the largest pair of band rows LevenshteinWithin keeps in a
// stack array: two rows of width 2k+1 fit for k <= 8, which covers the
// thresholds MDs use, so the hot verification path allocates nothing.
const bandOnStack = 34

// Within reports whether the edit distance between a and b is at most k.
// It is the workhorse of MD similarity checking.
func Within(a, b string, k int) bool {
	_, ok := LevenshteinWithin(a, b, k)
	return ok
}

// LevenshteinWithin returns the edit distance between a and b and true when
// it is at most k, and false otherwise. It runs a banded dynamic program in
// O(k*min(|a|,|b|)) time and stops at the first row whose every cell
// exceeds k. The band's last cell is exact whenever it is at most k: an
// alignment costing at most k strays at most k cells off the diagonal.
func LevenshteinWithin(a, b string, k int) (d int, ok bool) {
	if k < 0 {
		return 0, false
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b)-len(a) > k {
		return 0, false
	}
	if a == b {
		return 0, true
	}
	// Band of width 2k+1 around the diagonal.
	const inf = 1 << 30
	width := 2*k + 1
	var stack [bandOnStack]int
	var band []int
	if 2*width <= len(stack) {
		band = stack[:2*width]
	} else {
		band = make([]int, 2*width)
	}
	prev, cur := band[:width], band[width:]
	// prev[d] holds the cost at column j = i + (d - k) for the current row i.
	for d := 0; d < width; d++ {
		j := d - k
		if j >= 0 && j <= len(b) {
			prev[d] = j
		} else {
			prev[d] = inf
		}
	}
	for i := 1; i <= len(a); i++ {
		rowMin := inf
		for d := 0; d < width; d++ {
			j := i + d - k
			best := inf
			switch {
			case j < 0 || j > len(b):
			case j == 0:
				best = i
			default:
				cost := 1
				if a[i-1] == b[j-1] {
					cost = 0
				}
				if prev[d] != inf { // diagonal: (i-1, j-1)
					best = prev[d] + cost
				}
				if d > 0 && cur[d-1] != inf && cur[d-1]+1 < best { // left: (i, j-1)
					best = cur[d-1] + 1
				}
				if d < width-1 && prev[d+1] != inf && prev[d+1]+1 < best { // up: (i-1, j)
					best = prev[d+1] + 1
				}
			}
			cur[d] = best
			rowMin = min(rowMin, best)
		}
		// Every alignment path crosses every row, and costs never decrease
		// along a path: once a whole row exceeds k, so does the last cell.
		if rowMin > k {
			return 0, false
		}
		prev, cur = cur, prev
	}
	// len(b)-len(a) <= k puts the last cell inside the band.
	if last := prev[len(b)-len(a)+k]; last <= k {
		return last, true
	}
	return 0, false
}

// Jaro returns the Jaro similarity of a and b in [0,1].
func Jaro(a, b string) float64 {
	if a == b {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	window := len(a)
	if len(b) > window {
		window = len(b)
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	aMatch := make([]bool, len(a))
	bMatch := make([]bool, len(b))
	matches := 0
	for i := 0; i < len(a); i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > len(b) {
			hi = len(b)
		}
		for j := lo; j < hi; j++ {
			if !bMatch[j] && a[i] == b[j] {
				aMatch[i], bMatch[j] = true, true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < len(a); i++ {
		if !aMatch[i] {
			continue
		}
		for !bMatch[j] {
			j++
		}
		if a[i] != b[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(len(a)) + m/float64(len(b)) + (m-float64(transpositions)/2)/m) / 3
}

// JaroWinkler returns the Jaro-Winkler similarity with the standard prefix
// scale of 0.1 and prefix length capped at 4.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < 4 && a[prefix] == b[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// QGrams returns the multiset of q-grams of s as a count map. Strings
// shorter than q yield a single gram equal to the whole string.
func QGrams(s string, q int) map[string]int {
	out := make(map[string]int)
	if len(s) < q {
		if len(s) > 0 {
			out[s] = 1
		}
		return out
	}
	for i := 0; i+q <= len(s); i++ {
		out[s[i:i+q]]++
	}
	return out
}

// Jaccard returns the Jaccard similarity of the q-gram sets of a and b.
func Jaccard(a, b string, q int) float64 {
	ga, gb := QGrams(a, q), QGrams(b, q)
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	inter := 0
	for g := range ga {
		if _, ok := gb[g]; ok {
			inter++
		}
	}
	union := len(ga) + len(gb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// LCSubstring returns the length of the longest common substring
// (contiguous) of a and b. Blocking in Section 5.2 relies on the fact that
// edit distance within K implies LCSubstring >= max(|a|,|b|)/(K+1).
func LCSubstring(a, b string) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	best := 0
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > best {
					best = cur[j]
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return best
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
