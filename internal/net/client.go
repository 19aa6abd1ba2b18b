package net

import (
	"bufio"
	"errors"
	"fmt"
	"net"

	"repro/internal/plan"
	"repro/internal/wal"
)

// Client is a synchronous connection to a Frontend. A client is either in
// request mode (every call sends one request and reads its reply) or, after
// Subscribe, in stream mode (Next reads events until the connection or the
// subscription ends). Use one client per concern; clients are not safe for
// concurrent use.
type Client struct {
	conn      net.Conn
	r         *bufio.Reader
	w         *bufio.Writer
	workers   int
	streaming bool
}

// ErrStreaming reports a request attempted on a client that has subscribed:
// the connection now carries stream frames, so request/reply matching is no
// longer possible. Dial a second client for control-plane calls.
var ErrStreaming = errors.New("net: client is streaming; dial a separate client for requests")

// RemoteError is a server-reported failure, distinguished from transport
// errors so callers can tell "the server refused" from "the wire broke".
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// Dial connects and performs the hello handshake.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn)
}

// NewClient performs the handshake over an established connection (tests
// use in-memory pipes). A server speaking another protocol version refuses
// it with a RemoteError naming the version it wants.
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	resp, err := c.call(request{kind: reqHello, magic: Magic, version: Version})
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.workers = int(resp.value & 0xffffffff) // the high half echoes the version
	return c, nil
}

// Workers returns the server's worker count (learned at handshake).
func (c *Client) Workers() int { return c.workers }

// Close severs the connection (ending any subscription server-side).
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) send(req request) error {
	if _, err := c.w.Write(wal.AppendRecord(nil, encodeRequest(req))); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *Client) read() (response, error) {
	payload, err := wal.ReadRecord(c.r, MaxFrame)
	if err != nil {
		return response{}, err
	}
	return decodeResponse(payload)
}

// call sends one request and reads its reply.
func (c *Client) call(req request) (response, error) {
	if c.streaming {
		return response{}, ErrStreaming
	}
	if err := c.send(req); err != nil {
		return response{}, err
	}
	resp, err := c.read()
	if err != nil {
		return response{}, err
	}
	if resp.kind == respErr {
		return response{}, &RemoteError{Msg: resp.msg}
	}
	return resp, nil
}

// Install installs a named query from a Datalog program: it parses and
// compiles the text here (plan.ParseDatalog, plan.Compile) and ships the plan
// with InstallPlan, the text as typed being its listing.
func (c *Client) Install(name, program string) error {
	prog, err := plan.ParseDatalog(program)
	if err != nil {
		return err
	}
	root, _, err := plan.Compile(prog)
	if err != nil {
		return err
	}
	return c.InstallPlan(name, program, root)
}

// InstallPlan installs a named query from a relational plan built with the
// internal/plan API. The display text accompanies the query in listings. The
// plan is validated locally before anything goes on the wire.
func (c *Client) InstallPlan(name, text string, root *plan.Node) error {
	if err := root.Validate(); err != nil {
		return err
	}
	_, err := c.call(request{kind: reqInstallPlan, name: name, text: text, blob: plan.Encode(root)})
	return err
}

// Uninstall removes a query; its subscribers' streams end.
func (c *Client) Uninstall(name string) error {
	_, err := c.call(request{kind: reqUninstall, name: name})
	return err
}

// Update applies input deltas to a source at its current epoch.
func (c *Client) Update(source string, upds []Delta) error {
	_, err := c.call(request{kind: reqUpdate, name: source, upds: upds})
	return err
}

// Advance seals the source's current epoch and returns it; results for the
// sealed epoch then flow to every subscriber.
func (c *Client) Advance(source string) (uint64, error) {
	resp, err := c.call(request{kind: reqAdvance, name: source})
	return resp.value, err
}

// Sync blocks until every sealed epoch of the source is reflected on all
// workers.
func (c *Client) Sync(source string) error {
	_, err := c.call(request{kind: reqSync, name: source})
	return err
}

// List reports the server's registered sources and installed queries.
func (c *Client) List() (Listing, error) {
	resp, err := c.call(request{kind: reqList})
	return resp.listing, err
}

// Subscribe switches the client into stream mode: the server streams each
// named query's consolidated snapshot, then per-epoch deltas and frontier
// announcements as epochs complete. Read them with Next.
func (c *Client) Subscribe(queries ...string) error {
	if len(queries) == 0 {
		return fmt.Errorf("net: subscribe to at least one query")
	}
	if _, err := c.call(request{kind: reqSubscribe, names: queries}); err != nil {
		return err
	}
	c.streaming = true
	return nil
}

// Next reads one stream event. It blocks at the subscriber's own pace —
// which is exactly the protocol's backpressure: a client that stops calling
// Next stalls only its own stream. A client that lags past the server's
// bound sees a Resync event (drop accumulated state, adopt the carried
// collection). Returns io.EOF (or the transport error) when the connection
// ends.
func (c *Client) Next() (Event, error) {
	if !c.streaming {
		return Event{}, fmt.Errorf("net: Next before Subscribe")
	}
	resp, err := c.read()
	if err != nil {
		return Event{}, err
	}
	switch resp.kind {
	case streamSnapshot, streamDelta, streamFrontier, streamEnd, streamResync:
		return resp.event, nil
	case respErr:
		return Event{}, &RemoteError{Msg: resp.msg}
	default:
		return Event{}, protoErrf("unexpected frame kind %d in stream", resp.kind)
	}
}
