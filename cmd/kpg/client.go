package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	knet "repro/internal/net"
)

var (
	clientAddr  = flag.String("addr", "127.0.0.1:7071", "client: server address")
	clientUntil = flag.Uint64("until", 0, "client watch: exit once every watched query's frontier reaches this epoch (0 = stream forever)")
)

const clientUsage = `usage: kpg client <verb> [args]  (server chosen with -addr)

  install <name> <program...> compile a Datalog program client-side and ship
                              the plan, e.g.
                                kpg client install tc \
                                  'tc(x,y) :- edges(x,y). tc(x,z) :- tc(x,y), edges(y,z).'
                                kpg client install deg 'deg(x, count(y)) :- edges(x, y).'
                              The query predicate (?- p(a,b). or the first
                              head) may count: p(x, count(y)) is each x with
                              its number of distinct y. "_" is a wildcard
                              (fresh per occurrence). Rule bodies must be
                              join-connected: each atom after the first
                              shares a variable with those already joined,
                              and at most two variables stay live (cartesian
                              products are a planner limitation, not a
                              syntax error)
  uninstall <name>            remove a query (its watchers' streams end)
  update <source> <k:v[:d]>…  apply deltas at the current epoch (d defaults to 1)
  advance <source>            seal the current epoch (publishes results)
  sync <source>               wait until sealed epochs are fully reflected
  list                        show sources and installed queries
  watch <query...>            stream snapshot + per-epoch deltas; with
                              -until N, exit at frontier N and print the
                              accumulated STATE lines
`

// client is the kpg client subcommand: a thin shell over net.Client.
func client() {
	args := flag.Args()[1:] // strip the "client" verb
	if len(args) < 1 {
		fmt.Fprint(os.Stderr, clientUsage)
		os.Exit(2)
	}
	verb, args := args[0], args[1:]
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "client: %v\n", err)
		os.Exit(1)
	}
	c, err := knet.Dial(*clientAddr)
	if err != nil {
		fail(err)
	}
	defer c.Close()

	switch verb {
	case "install":
		if len(args) < 2 {
			fmt.Fprint(os.Stderr, clientUsage)
			os.Exit(2)
		}
		src := strings.Join(args[1:], " ")
		if err := c.Install(args[0], src); err != nil {
			fail(err)
		}
		fmt.Printf("installed %q = %s\n", args[0], src)
	case "uninstall":
		if len(args) != 1 {
			fmt.Fprint(os.Stderr, clientUsage)
			os.Exit(2)
		}
		if err := c.Uninstall(args[0]); err != nil {
			fail(err)
		}
		fmt.Printf("uninstalled %q\n", args[0])
	case "update":
		if len(args) < 2 {
			fmt.Fprint(os.Stderr, clientUsage)
			os.Exit(2)
		}
		upds, err := parseDeltas(args[1:])
		if err != nil {
			fail(err)
		}
		if err := c.Update(args[0], upds); err != nil {
			fail(err)
		}
		fmt.Printf("applied %d deltas to %q\n", len(upds), args[0])
	case "advance":
		if len(args) != 1 {
			fmt.Fprint(os.Stderr, clientUsage)
			os.Exit(2)
		}
		sealed, err := c.Advance(args[0])
		if err != nil {
			fail(err)
		}
		fmt.Printf("sealed epoch %d\n", sealed)
	case "sync":
		if len(args) != 1 {
			fmt.Fprint(os.Stderr, clientUsage)
			os.Exit(2)
		}
		if err := c.Sync(args[0]); err != nil {
			fail(err)
		}
		fmt.Println("synced")
	case "list":
		l, err := c.List()
		if err != nil {
			fail(err)
		}
		for _, s := range l.Sources {
			fmt.Printf("source %s epoch %d\n", s.Name, s.Epoch)
		}
		for _, q := range l.Queries {
			fmt.Printf("query %s = %s\n", q.Name, q.Text)
		}
	case "watch":
		if len(args) < 1 {
			fmt.Fprint(os.Stderr, clientUsage)
			os.Exit(2)
		}
		if err := watch(c, args); err != nil {
			fail(err)
		}
	default:
		fmt.Fprintf(os.Stderr, "client: unknown verb %q\n", verb)
		fmt.Fprint(os.Stderr, clientUsage)
		os.Exit(2)
	}
}

// parseDeltas parses k:v or k:v:d arguments (d may be negative).
func parseDeltas(args []string) ([]knet.Delta, error) {
	upds := make([]knet.Delta, 0, len(args))
	for _, a := range args {
		parts := strings.Split(a, ":")
		if len(parts) != 2 && len(parts) != 3 {
			return nil, fmt.Errorf("bad delta %q: want key:val or key:val:diff", a)
		}
		k, err := strconv.ParseUint(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad delta %q: key: %v", a, err)
		}
		v, err := strconv.ParseUint(parts[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad delta %q: val: %v", a, err)
		}
		d := int64(1)
		if len(parts) == 3 {
			if d, err = strconv.ParseInt(parts[2], 10, 64); err != nil {
				return nil, fmt.Errorf("bad delta %q: diff: %v", a, err)
			}
		}
		upds = append(upds, knet.Delta{Key: k, Val: v, Diff: d})
	}
	return upds, nil
}

// watch subscribes and prints the stream. Each event prints as it arrives;
// with -until N it exits once every watched query's frontier reaches N (or
// its stream ends) and prints the accumulated net state, sorted, as STATE
// lines — the stable artifact scripts assert on.
func watch(c *knet.Client, queries []string) error {
	if err := c.Subscribe(queries...); err != nil {
		return err
	}
	acc := make(map[string]map[[2]uint64]int64, len(queries))
	done := make(map[string]bool, len(queries))
	for _, q := range queries {
		acc[q] = make(map[[2]uint64]int64)
	}
	allDone := func() bool {
		if *clientUntil == 0 {
			return false
		}
		for _, q := range queries {
			if !done[q] {
				return false
			}
		}
		return true
	}
	for !allDone() {
		ev, err := c.Next()
		if err != nil {
			return err
		}
		switch {
		case ev.End():
			fmt.Printf("%s: stream ended\n", ev.Query)
			done[ev.Query] = true
		case ev.Frontier():
			fmt.Printf("%s: complete through epoch %d\n", ev.Query, ev.Epoch)
			if *clientUntil > 0 && ev.Epoch >= *clientUntil {
				done[ev.Query] = true
			}
		default:
			kind := "delta"
			switch {
			case ev.Snapshot():
				kind = "snapshot"
			case ev.Resync():
				// The server reset this lagging stream: the event carries a
				// consolidated replacement, so drop everything accumulated.
				kind = "resync"
				acc[ev.Query] = make(map[[2]uint64]int64)
			}
			fmt.Printf("%s: %s at epoch %d (%d updates)\n", ev.Query, kind, ev.Epoch, len(ev.Upds))
			m := acc[ev.Query]
			for _, u := range ev.Upds {
				k := [2]uint64{u.Key, u.Val}
				m[k] += u.Diff
				if m[k] == 0 {
					delete(m, k)
				}
			}
		}
	}
	for _, q := range queries {
		m := acc[q]
		keys := make([][2]uint64, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			fmt.Printf("STATE %s %d %d %d\n", q, k[0], k[1], m[k])
		}
	}
	return nil
}
