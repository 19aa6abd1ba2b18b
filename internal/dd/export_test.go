package dd

// worklistCap is the capacity a reduce holds for its worklist and its
// schedule scratch: zero once its work is done, so an idle reduce costs no
// memory for work it no longer has.
func (st *reduceState[K, V, V2]) worklistCap() int {
	return cap(st.work) + cap(st.later) + cap(st.ready) + cap(st.emitted)
}
