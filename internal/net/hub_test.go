package net

import (
	"reflect"
	"testing"
)

// foldDeltas accumulates a delta list into a net collection.
func foldDeltas(acc map[[2]uint64]int64, upds []Delta) {
	for _, d := range upds {
		k := [2]uint64{d.Key, d.Val}
		acc[k] += d.Diff
		if acc[k] == 0 {
			delete(acc, k)
		}
	}
}

// TestHubLagResetBoundsMemory is the zero-drain acceptance check at the hub
// level: a subscriber that never reads cannot pin more than the bound (plus
// the epoch in flight) — the enforcement sweep resets it, its buckets fold,
// and its eventual read is a resync carrying the exact consolidated
// collection.
func TestHubLagResetBoundsMemory(t *testing.T) {
	const maxLag, epochs, per = 50, 40, 20
	h := newHub(maxLag)
	sub, snap, start := h.subscribe()
	if len(snap) != 0 || start != 0 {
		t.Fatalf("fresh hub snapshot = %d deltas at %d, want empty at 0", len(snap), start)
	}

	want := make(map[[2]uint64]int64)
	for e := uint64(0); e < epochs; e++ {
		for i := uint64(0); i < per/2; i++ {
			h.add(e, i, e, 1)
			foldDeltas(want, []Delta{{Key: i, Val: e, Diff: 1}})
		}
		if e > 0 { // retract half the previous epoch: consolidation matters
			for i := uint64(0); i < per/2; i++ {
				h.add(e, i, e-1, -1)
				foldDeltas(want, []Delta{{Key: i, Val: e - 1, Diff: -1}})
			}
		}
		h.complete(e + 1)
		// The sweep runs inside complete: the zero-drain subscriber can pin
		// at most the bound plus the one epoch that tipped it over.
		if p := h.pinned(); p > maxLag+per {
			t.Fatalf("epoch %d: hub pins %d deltas, bound %d (+%d slack)", e, p, maxLag, per)
		}
	}

	// The subscriber's next read is a resync: the full consolidated
	// collection below the frontier, replacing everything it missed.
	ev, ok := sub.next()
	if !ok {
		t.Fatal("next after reset: stream over, want a resync event")
	}
	if !ev.resync || ev.start != epochs || ev.frontier != epochs-1 {
		t.Fatalf("resync = %v start=%d frontier=%d, want true/%d/%d",
			ev.resync, ev.start, ev.frontier, epochs, epochs-1)
	}
	got := make(map[[2]uint64]int64)
	foldDeltas(got, ev.snapshot)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resync snapshot diverges from oracle:\n got %v\nwant %v", got, want)
	}

	// Live continuation after the resync: ordinary per-epoch deltas again.
	h.add(epochs, 999, 999, 1)
	h.complete(epochs + 1)
	ev, ok = sub.next()
	if !ok || ev.resync || len(ev.ds) != 1 || ev.ds[0].epoch != epochs || ev.frontier != epochs {
		t.Fatalf("post-resync event = %+v ok=%v, want one live epoch %d", ev, ok, epochs)
	}
}

// TestHubUnboundedKeepsBacklog: with the bound disabled a laggard pins its
// whole backlog (the pre-existing behavior) and reads it all back.
func TestHubUnboundedKeepsBacklog(t *testing.T) {
	h := newHub(0)
	sub, _, _ := h.subscribe()
	const epochs = 30
	for e := uint64(0); e < epochs; e++ {
		h.add(e, e, e, 1)
		h.complete(e + 1)
	}
	if p := h.pinned(); p != epochs {
		t.Fatalf("unbounded hub pins %d, want %d", p, epochs)
	}
	ev, ok := sub.next()
	if !ok || ev.resync || len(ev.ds) != epochs || ev.frontier != epochs-1 {
		t.Fatalf("unbounded read = %d epochs resync=%v ok=%v, want all %d",
			len(ev.ds), ev.resync, ok, epochs)
	}
}

// TestStreamFrameRoundTrip covers the version-2 frames: streamEnd carries
// its typed reason and streamResync carries deltas, both surviving
// encode/decode.
func TestStreamFrameRoundTrip(t *testing.T) {
	events := []Event{
		{Kind: streamEnd, Query: "q", Reason: EndReasonClosed},
		{Kind: streamResync, Query: "q", Epoch: 17,
			Upds: []Delta{{Key: 1, Val: 2, Diff: 3}, {Key: 4, Val: 5, Diff: -6}}},
		{Kind: streamSnapshot, Query: "q", Epoch: 2, Upds: []Delta{{Key: 7, Val: 8, Diff: 1}}},
	}
	for _, want := range events {
		resp, err := decodeResponse(encodeEvent(want))
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if !reflect.DeepEqual(resp.event, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", resp.event, want)
		}
	}
	if !events[0].End() || events[0].Resync() || !events[1].Resync() {
		t.Fatal("event kind predicates disagree with kinds")
	}
}
