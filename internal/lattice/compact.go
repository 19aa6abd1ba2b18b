package lattice

// Compact returns rep_F(t): the representative of time t relative to the
// frontier f, defined (Appendix A of the paper) as
//
//	rep_F(t) = ⋀_{x ∈ F} (t ∨ x)
//
// the greatest lower bound of the least upper bounds of t with each frontier
// element. The representative compares identically to t against every time
// in advance of F (Theorem 1, correctness), and any two times that compare
// identically against all times in advance of F share a representative
// (Theorem 2, optimality). Updates whose times share a representative may be
// consolidated.
//
// The second result reports whether a representative exists: when f is empty
// no reader can observe the update at all, and it may be discarded.
func Compact(t Time, f Frontier) (Time, bool) {
	if len(f.elems) == 0 {
		return Time{}, false
	}
	rep := t.Join(f.elems[0])
	for _, x := range f.elems[1:] {
		rep = rep.Meet(t.Join(x))
	}
	return rep, true
}
