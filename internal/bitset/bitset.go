// Package bitset provides dense bit sets sized at construction time.
//
// The allocator uses bit sets for liveness vectors and for the triangular
// bit matrix of the interference graph, so the operations here are tuned
// for word-at-a-time traversal rather than generality.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity dense bit set. The zero value is an empty set of
// capacity zero; use New to create a set with room for n elements.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for elements 0..n-1.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Slab hands out sets that share one backing array. Solvers that need
// one set per block take them all from one slab, and a solver that runs
// again keeps its slab: Reset reuses the backing words and the Set
// headers whenever they are large enough. The zero value is ready to
// use.
type Slab struct {
	words []uint64
	sets  []Set
}

// Reset returns k empty sets, each with capacity for elements 0..n-1.
// Each set's words are a capacity-capped sub-slice of the slab, so no
// set can grow into its neighbor. The sets stay valid until the next
// Reset, which overwrites them. Only the words handed out are cleared,
// and a reset to the same or a smaller shape allocates nothing.
func (s *Slab) Reset(k, n int) []Set {
	if k < 0 || n < 0 {
		panic("bitset: negative slab size")
	}
	w := (n + wordBits - 1) / wordBits
	if cap(s.words) >= k*w {
		s.words = s.words[:k*w]
		clear(s.words)
	} else {
		s.words = make([]uint64, k*w)
	}
	if cap(s.sets) >= k {
		s.sets = s.sets[:k]
	} else {
		s.sets = make([]Set, k)
	}
	for i := range s.sets {
		s.sets[i] = Set{words: s.words[i*w : (i+1)*w : (i+1)*w], n: n}
	}
	return s.sets
}

// Len returns the capacity of the set (the n passed to New).
func (s *Set) Len() int { return s.n }

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Clear removes every element.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Copy returns a new set with the same capacity and contents.
func (s *Set) Copy() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of t. The sets must have the
// same capacity.
func (s *Set) CopyFrom(t *Set) {
	s.mustMatch(t)
	copy(s.words, t.words)
}

// Equal reports whether s and t contain the same elements. Sets of
// different capacity are never equal.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// UnionWith adds every element of t to s and reports whether s changed.
func (s *Set) UnionWith(t *Set) bool {
	s.mustMatch(t)
	changed := false
	for i, w := range t.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// IntersectWith removes from s every element not in t.
func (s *Set) IntersectWith(t *Set) {
	s.mustMatch(t)
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// DifferenceWith removes from s every element of t.
func (s *Set) DifferenceWith(t *Set) {
	s.mustMatch(t)
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// Intersects reports whether s and t share any element.
func (s *Set) Intersects(t *Set) bool {
	s.mustMatch(t)
	for i, w := range s.words {
		if w&t.words[i] != 0 {
			return true
		}
	}
	return false
}

func (s *Set) mustMatch(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, t.n))
	}
}

// ForEach calls f for each element in increasing order.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Elements returns the members of the set in increasing order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the set as "{1, 5, 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
