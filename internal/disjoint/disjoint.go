// Package disjoint implements a disjoint-set (union-find) forest.
//
// Renumber uses it to union SSA values into live ranges, and the coalescer
// keeps unioning live ranges as copies are removed — exactly the "fast
// disjoint-set union" role described in §4.1 of the paper.
package disjoint

// Sets is a union-find forest over the integers 0..n-1, using union by
// rank and path halving.
type Sets struct {
	parent []int32
	rank   []int8
	count  int // number of disjoint sets
}

// New returns a forest of n singleton sets.
func New(n int) *Sets {
	s := new(Sets)
	s.Reset(n)
	return s
}

// Reset makes s a forest of n singleton sets, whatever it held before,
// keeping its storage when it is large enough: a forest reused across
// rounds allocates only when it must grow.
func (s *Sets) Reset(n int) {
	if cap(s.parent) < n || cap(s.rank) < n {
		s.parent, s.rank = make([]int32, n), make([]int8, n)
	} else {
		s.parent, s.rank = s.parent[:n], s.rank[:n]
		clear(s.rank)
	}
	for i := range s.parent {
		s.parent[i] = int32(i)
	}
	s.count = n
}

// Len returns the number of elements in the forest.
func (s *Sets) Len() int { return len(s.parent) }

// Count returns the current number of disjoint sets.
func (s *Sets) Count() int { return s.count }

// Find returns the canonical representative of x's set.
func (s *Sets) Find(x int) int {
	for s.parent[x] != int32(x) {
		s.parent[x] = s.parent[s.parent[x]] // path halving
		x = int(s.parent[x])
	}
	return x
}

// Union merges the sets containing x and y and returns the representative
// of the merged set. It reports false if x and y were already together.
func (s *Sets) Union(x, y int) (root int, merged bool) {
	rx, ry := s.Find(x), s.Find(y)
	if rx == ry {
		return rx, false
	}
	if s.rank[rx] < s.rank[ry] {
		rx, ry = ry, rx
	}
	s.parent[ry] = int32(rx)
	if s.rank[rx] == s.rank[ry] {
		s.rank[rx]++
	}
	s.count--
	return rx, true
}

// Same reports whether x and y are in the same set.
func (s *Sets) Same(x, y int) bool { return s.Find(x) == s.Find(y) }

// Grow appends extra singleton sets so the forest covers 0..n-1. It is a
// no-op when the forest is already at least that large.
func (s *Sets) Grow(n int) {
	for i := len(s.parent); i < n; i++ {
		s.parent = append(s.parent, int32(i))
		s.rank = append(s.rank, 0)
		s.count++
	}
}
