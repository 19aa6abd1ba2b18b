package core

// LiveHandles counts the trace's live read handles: the test hook behind
// "this reader took no handle on the shared trace".
func (a *TraceAgent[K, V]) LiveHandles() int {
	n := 0
	for _, h := range a.spine.handles {
		if !h.dropped {
			n++
		}
	}
	return n
}
