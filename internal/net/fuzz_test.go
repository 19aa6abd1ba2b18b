package net

import (
	"bytes"
	"fmt"
	"io"
	stdnet "net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/wal"
)

// FuzzFrameDecode: malformed, truncated, or bit-flipped bytes must never
// panic any layer of the receive path — the frame reader, the request
// decoder, the response decoder, or the plan decoder. Every outcome is a
// typed error or a valid value.
func FuzzFrameDecode(f *testing.F) {
	// Seed with every request shape, valid stream frames, and framings.
	reqs := []request{
		{kind: reqHello, magic: Magic, version: Version},
		{kind: reqInstallPlan, name: "q", text: "deg(x, count(y)) :- edges(x, y), x != 3.",
			blob: plan.Encode(plan.Scan("edges").Filter(plan.FKeyNe, 3).Distinct().Count())},
		{kind: reqUninstall, name: "q"},
		{kind: reqUpdate, name: "edges", upds: []Delta{{Key: 1, Val: 2, Diff: 1}, {Key: 3, Val: 4, Diff: -1}}},
		{kind: reqAdvance, name: "edges"},
		{kind: reqSync, name: "edges"},
		{kind: reqList},
		{kind: reqSubscribe, names: []string{"a", "b"}},
		{kind: reqInstallPlan, name: "p", text: "tc",
			blob: plan.Encode(plan.Scan("edges").JoinRight(plan.Scan("edges")).Count())},
		{kind: reqInstallPlan, name: "p", text: "t", blob: []byte("not a plan")},
	}
	for _, r := range reqs {
		f.Add(encodeRequest(r))
		f.Add(wal.AppendRecord(nil, encodeRequest(r)))
	}
	f.Add(encodeOK(7))
	f.Add(encodeErr("boom"))
	f.Add(encodeListing(Listing{Sources: []SourceInfo{{Name: "edges", Epoch: 3}},
		Queries: []QueryInfo{{Name: "q", Text: "edges"}}}))
	f.Add(encodeEvent(Event{Kind: streamDelta, Query: "q", Epoch: 2,
		Upds: []Delta{{Key: 9, Val: 9, Diff: 1}}}))
	f.Add(wal.AppendRecord(wal.AppendRecord(nil, encodeOK(1)), encodeErr("x")))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Frame reader over the raw bytes: must terminate with a value or a
		// typed error, never panic, and never allocate beyond the cap.
		r := bytes.NewReader(data)
		for {
			payload, err := wal.ReadRecord(r, 1<<16)
			if err != nil {
				break
			}
			// Both decoders over each recovered payload.
			decodeRequest(payload)
			decodeResponse(payload)
		}
		// Decoders over the raw bytes directly (bit-flipped payloads that
		// never had a valid frame).
		if req, err := decodeRequest(data); err == nil && req.kind == reqInstallPlan {
			// Parsed install-plan requests feed the plan decoder.
			plan.Decode(req.blob)
		}
		decodeResponse(data)
	})
}

// TestMalformedFramesDisconnectCleanly drives raw garbage at a live
// frontend over real connections: the server must answer with a typed error
// or disconnect, keep serving afterwards, and never panic or wedge.
func TestMalformedFramesDisconnectCleanly(t *testing.T) {
	srv := server.New(2)
	defer srv.Close()
	edges, err := server.NewSource(srv, "edges", core.U64())
	if err != nil {
		t.Fatalf("NewSource: %v", err)
	}
	fe := NewFrontend(srv)
	if err := fe.RegisterSource(edges); err != nil {
		t.Fatalf("RegisterSource: %v", err)
	}
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go fe.Serve(ln)
	defer fe.Close()
	addr := ln.Addr().String()

	hello := wal.AppendRecord(nil, encodeRequest(request{
		kind: reqHello, magic: Magic, version: Version}))
	// The retired text-install frame, exactly as an old client would send it
	// after a good hello: an unknown kind now, whatever its body.
	retired := wal.AppendString(wal.AppendString([]byte{reqInstallRetired}, "q"), "edges | count")
	payloads := [][]byte{
		[]byte("not a frame at all"),
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},           // absurd length prefix
		wal.AppendRecord(nil, []byte{}),                // empty payload
		wal.AppendRecord(nil, []byte{99, 1, 2, 3}),     // unknown kind
		wal.AppendRecord(nil, []byte{reqUpdate, 0xff}), // truncated body
		append(append([]byte{}, hello...), 0x01, 0x02), // valid hello, torn tail
		wal.AppendRecord(append([]byte{}, hello...), retired),
	}
	for i, p := range payloads {
		conn, err := stdnet.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(p); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		conn.(*stdnet.TCPConn).CloseWrite() // we have nothing more to say
		// The server must either reply (typed error or handshake ack) and
		// disconnect, or just disconnect: the read must reach EOF without
		// the deadline firing.
		replies, err := io.ReadAll(conn)
		if err != nil {
			t.Fatalf("case %d: read ended with %v, want EOF", i, err)
		}
		conn.Close()
		if i == len(payloads)-1 {
			want := fmt.Sprintf("unknown request kind %d", reqInstallRetired)
			if !bytes.Contains(replies, []byte(want)) {
				t.Fatalf("retired install frame: server replied %q, want a typed error saying %q", replies, want)
			}
		}
	}

	// After all that abuse the frontend still serves real clients.
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial after abuse: %v", err)
	}
	defer c.Close()
	if err := c.Update("edges", []Delta{{Key: 1, Val: 2, Diff: 1}}); err != nil {
		t.Fatalf("update after abuse: %v", err)
	}
	if _, err := c.Advance("edges"); err != nil {
		t.Fatalf("advance after abuse: %v", err)
	}
	if err := c.Sync("edges"); err != nil {
		t.Fatalf("sync after abuse: %v", err)
	}
}
