// Package net is the wire-protocol front-end for live queries: it exposes a
// server.Server's install/uninstall/update/subscribe surface to external
// clients over a length-prefixed binary protocol, so queries attach to a
// *running* system (the paper's §6.2 interactive scenario) from another
// process.
//
// Framing reuses the WAL's record format (u32 length | u32 CRC32-C |
// payload, via wal.AppendRecord/wal.ReadRecord): the frames that carry
// result deltas are the same encodings the shard logs persist, which is
// deliberate — a distributed data plane would frame the identical artifact.
// Every payload is `u8 kind | body`; bodies are built from the wal codec
// helpers and decoded with the bounds-checked wal.Dec, so malformed bytes
// yield typed errors, never panics.
//
// Backpressure is tied to the epoch cycle: a subscription imports the
// query's result arrangement, its worker-side sink only appends batches to
// the subscriber's in-memory feed (never blocking), and the subscriber
// streams completed epochs at the pace of its own connection. A slow
// subscriber therefore lags and holds only its own backlog; it never blocks
// the workers or other subscribers. That backlog is itself bounded
// (FrontendOptions.SubscriberMaxLag): a subscriber holding more live deltas
// than the bound is reset — its stream continues with a streamResync frame
// carrying the consolidated collection of a fresh import, exactly what a
// fresh subscriber would receive. Remote epoch seals route through per-source
// server.Batchers (FrontendOptions.BatchMaxLag), so a client hammering
// advance cannot queue unbounded per-update epochs either.
//
// Queries cross the wire in one form: a relational plan in the internal/plan
// encoding (reqInstallPlan). Datalog (plan.Compile, which Client.Install
// runs) is the one text that compiles to it, on the client's side; the server
// never parses query text.
package net

import (
	"errors"
	"fmt"

	"repro/internal/wal"
)

// Protocol constants.
const (
	// Magic opens every connection's hello frame ("kpg1").
	Magic uint32 = 0x6b706731
	// Version is the one protocol version either end speaks; a hello at any
	// other is refused with a typed error naming it. Version 2 added
	// streamResync (a lag-bounded subscriber's state is replaced wholesale)
	// and the typed reason on streamEnd. Version 3 added reqInstallPlan
	// (install a relational plan shipped in the internal/plan wire encoding)
	// and the version echo in the hello reply's high bits, and retired
	// reqInstall. Version 4 dropped the filter's unread second operand from
	// the plan encoding.
	Version uint32 = 4
	// MaxFrame bounds a single frame's payload in both directions.
	MaxFrame uint32 = 1 << 24
)

// Request kinds (client to server).
const (
	reqHello byte = iota + 1
	// reqInstallRetired carried pipeline query text for the server to parse.
	// Nothing sends or accepts it; the byte stays reserved so that no other
	// kind renumbers.
	reqInstallRetired
	reqUninstall
	reqUpdate
	reqAdvance
	reqSync
	reqList
	reqSubscribe
	// reqInstallPlan installs a relational plan: a display text for listings
	// plus the plan's canonical wire encoding (plan.Encode).
	reqInstallPlan
)

// Response and stream kinds (server to client).
const (
	respOK byte = iota + 64
	respErr
	respListing
	// streamSnapshot carries a subscriber's starting state: the query's net
	// collection consolidated through every epoch below Epoch.
	streamSnapshot
	// streamDelta carries one completed epoch's result changes.
	streamDelta
	// streamFrontier announces completion: every delta at or below Epoch has
	// been delivered (sent even when the epoch's delta is empty).
	streamFrontier
	// streamEnd announces that a subscription is over; no further events for
	// this query will follow. Its Reason says why.
	streamEnd
	// streamResync replaces the subscriber's accumulated state wholesale:
	// the subscriber's backlog exceeded its bound, so its feed was dropped
	// and a fresh import re-feeds the consolidated net collection below
	// Epoch instead of the per-epoch deltas it dropped.
	streamResync
)

// EndReasonClosed is the reason carried on streamEnd events: the query was
// uninstalled or the server is shutting down; the stream delivered
// everything published.
const EndReasonClosed = "closed"

// Delta is one result or input change on the wire.
type Delta struct {
	Key, Val uint64
	Diff     int64
}

// request is one decoded client frame.
type request struct {
	kind    byte
	magic   uint32 // hello
	version uint32 // hello
	name    string // installPlan/uninstall/update/advance/sync: query or source
	text    string // installPlan: display text
	blob    []byte // installPlan: plan wire encoding
	upds    []Delta
	names   []string // subscribe
}

// Event is one decoded stream frame, delivered to watchers.
type Event struct {
	Kind   byte // streamSnapshot, streamDelta, streamFrontier, streamEnd, or streamResync
	Query  string
	Epoch  uint64
	Upds   []Delta // nil for frontier and end events
	Reason string  // end events only: why the stream is over
}

// Snapshot reports whether the event carries a consolidated starting state.
func (e Event) Snapshot() bool { return e.Kind == streamSnapshot }

// Frontier reports whether the event is a pure completion announcement.
func (e Event) Frontier() bool { return e.Kind == streamFrontier }

// End reports whether the event ends its query's subscription.
func (e Event) End() bool { return e.Kind == streamEnd }

// Resync reports whether the event replaces all accumulated state for its
// query: the subscriber lagged past its bound and was reset onto the
// consolidated collection below Epoch.
func (e Event) Resync() bool { return e.Kind == streamResync }

// errProto reports a structurally valid frame with nonsensical contents.
var errProto = errors.New("net: protocol error")

func protoErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errProto, fmt.Sprintf(format, args...))
}

// appendDeltas encodes a delta list (count, then key/val/diff triples).
func appendDeltas(dst []byte, upds []Delta) []byte {
	dst = wal.AppendU32(dst, uint32(len(upds)))
	for _, u := range upds {
		dst = wal.AppendU64(dst, u.Key)
		dst = wal.AppendU64(dst, u.Val)
		dst = wal.AppendU64(dst, uint64(u.Diff))
	}
	return dst
}

// decDeltas decodes a delta list, bounding the count against the payload.
func decDeltas(d *wal.Dec) ([]Delta, error) {
	n, err := d.Count("delta")
	if err != nil {
		return nil, err
	}
	if n*24 > d.Remaining() {
		return nil, protoErrf("delta count %d exceeds frame", n)
	}
	out := make([]Delta, 0, n)
	for i := 0; i < n; i++ {
		k, err := d.U64()
		if err != nil {
			return nil, err
		}
		v, err := d.U64()
		if err != nil {
			return nil, err
		}
		diff, err := d.U64()
		if err != nil {
			return nil, err
		}
		out = append(out, Delta{Key: k, Val: v, Diff: int64(diff)})
	}
	return out, nil
}

// encodeRequest encodes one client frame payload.
func encodeRequest(r request) []byte {
	dst := []byte{r.kind}
	switch r.kind {
	case reqHello:
		dst = wal.AppendU32(dst, r.magic)
		dst = wal.AppendU32(dst, r.version)
	case reqInstallPlan:
		dst = wal.AppendString(dst, r.name)
		dst = wal.AppendString(dst, r.text)
		dst = wal.AppendString(dst, string(r.blob))
	case reqUninstall, reqAdvance, reqSync:
		dst = wal.AppendString(dst, r.name)
	case reqUpdate:
		dst = wal.AppendString(dst, r.name)
		dst = appendDeltas(dst, r.upds)
	case reqList:
	case reqSubscribe:
		dst = wal.AppendU32(dst, uint32(len(r.names)))
		for _, n := range r.names {
			dst = wal.AppendString(dst, n)
		}
	}
	return dst
}

// decodeRequest decodes one client frame payload. It never panics: every
// malformed input yields an error the connection handler reports and then
// disconnects on.
func decodeRequest(payload []byte) (request, error) {
	var r request
	if len(payload) == 0 {
		return r, protoErrf("empty frame")
	}
	d := wal.NewDec(payload[1:])
	r.kind = payload[0]
	var err error
	switch r.kind {
	case reqHello:
		if r.magic, err = d.U32(); err != nil {
			return r, err
		}
		if r.version, err = d.U32(); err != nil {
			return r, err
		}
	case reqInstallPlan:
		if r.name, err = d.String(); err != nil {
			return r, err
		}
		if r.text, err = d.String(); err != nil {
			return r, err
		}
		var blob string
		if blob, err = d.String(); err != nil {
			return r, err
		}
		r.blob = []byte(blob)
	case reqUninstall, reqAdvance, reqSync:
		if r.name, err = d.String(); err != nil {
			return r, err
		}
	case reqUpdate:
		if r.name, err = d.String(); err != nil {
			return r, err
		}
		if r.upds, err = decDeltas(d); err != nil {
			return r, err
		}
	case reqList:
	case reqSubscribe:
		n, err := d.Count("subscription")
		if err != nil {
			return r, err
		}
		r.names = make([]string, 0, n)
		for i := 0; i < n; i++ {
			nm, err := d.String()
			if err != nil {
				return r, err
			}
			r.names = append(r.names, nm)
		}
	default:
		return r, protoErrf("unknown request kind %d", r.kind)
	}
	if d.Remaining() != 0 {
		return r, protoErrf("%d trailing bytes after request body", d.Remaining())
	}
	return r, nil
}

// SourceInfo describes one registered source in a listing.
type SourceInfo struct {
	Name  string
	Epoch uint64
}

// QueryInfo describes one installed query in a listing.
type QueryInfo struct {
	Name string
	Text string
}

// Listing is the server's reply to a list request.
type Listing struct {
	Sources []SourceInfo
	Queries []QueryInfo
}

// encodeOK encodes a success response carrying one value (advance returns
// the sealed epoch; other requests carry zero).
func encodeOK(value uint64) []byte {
	return wal.AppendU64([]byte{respOK}, value)
}

func encodeErr(msg string) []byte {
	return wal.AppendString([]byte{respErr}, msg)
}

func encodeListing(l Listing) []byte {
	dst := []byte{respListing}
	dst = wal.AppendU32(dst, uint32(len(l.Sources)))
	for _, s := range l.Sources {
		dst = wal.AppendString(dst, s.Name)
		dst = wal.AppendU64(dst, s.Epoch)
	}
	dst = wal.AppendU32(dst, uint32(len(l.Queries)))
	for _, q := range l.Queries {
		dst = wal.AppendString(dst, q.Name)
		dst = wal.AppendString(dst, q.Text)
	}
	return dst
}

// encodeEvent encodes a stream frame.
func encodeEvent(e Event) []byte {
	dst := []byte{e.Kind}
	dst = wal.AppendString(dst, e.Query)
	dst = wal.AppendU64(dst, e.Epoch)
	switch e.Kind {
	case streamSnapshot, streamDelta, streamResync:
		dst = appendDeltas(dst, e.Upds)
	case streamEnd:
		dst = wal.AppendString(dst, e.Reason)
	}
	return dst
}

// response is one decoded server frame.
type response struct {
	kind    byte
	value   uint64 // ok
	msg     string // err
	listing Listing
	event   Event
}

// decodeResponse decodes one server frame payload (client side).
func decodeResponse(payload []byte) (response, error) {
	var r response
	if len(payload) == 0 {
		return r, protoErrf("empty frame")
	}
	d := wal.NewDec(payload[1:])
	r.kind = payload[0]
	var err error
	switch r.kind {
	case respOK:
		if r.value, err = d.U64(); err != nil {
			return r, err
		}
	case respErr:
		if r.msg, err = d.String(); err != nil {
			return r, err
		}
	case respListing:
		n, err := d.Count("source")
		if err != nil {
			return r, err
		}
		for i := 0; i < n; i++ {
			var s SourceInfo
			if s.Name, err = d.String(); err != nil {
				return r, err
			}
			if s.Epoch, err = d.U64(); err != nil {
				return r, err
			}
			r.listing.Sources = append(r.listing.Sources, s)
		}
		if n, err = d.Count("query"); err != nil {
			return r, err
		}
		for i := 0; i < n; i++ {
			var q QueryInfo
			if q.Name, err = d.String(); err != nil {
				return r, err
			}
			if q.Text, err = d.String(); err != nil {
				return r, err
			}
			r.listing.Queries = append(r.listing.Queries, q)
		}
	case streamSnapshot, streamDelta, streamFrontier, streamEnd, streamResync:
		r.event.Kind = r.kind
		if r.event.Query, err = d.String(); err != nil {
			return r, err
		}
		if r.event.Epoch, err = d.U64(); err != nil {
			return r, err
		}
		switch r.kind {
		case streamSnapshot, streamDelta, streamResync:
			if r.event.Upds, err = decDeltas(d); err != nil {
				return r, err
			}
		case streamEnd:
			if r.event.Reason, err = d.String(); err != nil {
				return r, err
			}
		}
	default:
		return r, protoErrf("unknown response kind %d", r.kind)
	}
	if d.Remaining() != 0 {
		return r, protoErrf("%d trailing bytes after response body", d.Remaining())
	}
	return r, nil
}
