package net

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/plan"
)

// Query grammar (client-side sugar: Client.Install parses it and ships the
// plan). A query is a pipeline over registered sources; every stage maps a
// (uint64, uint64) collection to another, so plans compose freely and every
// result streams over the wire in the same delta encoding:
//
//	query  := term { '|' stage }
//	term   := SOURCE | '(' query ')'
//	stage  := 'keyeq' N | 'valeq' N | 'keymod' M R | 'valmod' M R
//	        | 'swap' | 'join' term | 'count' | 'distinct'
//
// Stages:
//
//	keyeq N / valeq N   — keep records whose key (value) equals N
//	keymod M R          — keep records with key % M == R (valmod likewise)
//	swap                — exchange key and value
//	join t              — join with term t on key: a pipeline record (k, v)
//	                      matching t's (k, w) emits (w, v) — results re-key
//	                      by t's value and carry the pipeline's value, so
//	                      with edge sources keyed by origin node each join
//	                      is one hop along t
//	count               — per-key record count (value becomes the count)
//	distinct            — reduce every present record to multiplicity one
//
// The paper's interactive query classes fall out directly: one-hop from x is
// `edges | keyeq x | swap | join edges`, another `| join edges` makes it
// two-hop, and `| count` turns any of them into a maintained aggregate.
//
// The grammar is pure surface syntax: ParseQuery desugars a pipeline into the
// same relational plan IR (internal/plan) that Datalog programs compile to
// and the programmatic builder composes, so a pipeline and a plan that
// describe the same computation share one canonical form — and therefore one
// set of installed arrangements.

// maxPlanDepth bounds parenthesis nesting: the parser recurses, and the text
// comes from whoever holds a shell, so unbounded nesting would be a stack
// overflow.
const maxPlanDepth = 64

// tokenize splits a query text into tokens, treating '(', ')' and '|' as
// their own tokens regardless of spacing.
func tokenize(text string) []string {
	var toks []string
	cur := strings.Builder{}
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for _, r := range text {
		switch r {
		case '(', ')', '|':
			flush()
			toks = append(toks, string(r))
		case ' ', '\t', '\n', '\r':
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return toks
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []string
	pos  int
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	if t != "" {
		p.pos++
	}
	return t
}

func (p *parser) num(what string) (uint64, error) {
	t := p.next()
	if t == "" {
		return 0, fmt.Errorf("net: query: missing %s", what)
	}
	n, err := strconv.ParseUint(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("net: query: %s: %q is not a number", what, t)
	}
	return n, nil
}

// ParseQuery parses a pipeline query text into a relational plan. It never
// panics, whatever the input.
func ParseQuery(text string) (*plan.Node, error) {
	p := &parser{toks: tokenize(text)}
	pl, err := p.query(0)
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t != "" {
		return nil, fmt.Errorf("net: query: unexpected %q", t)
	}
	return pl, nil
}

func (p *parser) query(depth int) (*plan.Node, error) {
	pl, err := p.term(depth)
	if err != nil {
		return nil, err
	}
	for p.peek() == "|" {
		p.next()
		if pl, err = p.stage(pl, depth); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

func (p *parser) term(depth int) (*plan.Node, error) {
	if depth > maxPlanDepth {
		return nil, fmt.Errorf("net: query: nesting deeper than %d", maxPlanDepth)
	}
	switch t := p.next(); t {
	case "":
		return nil, fmt.Errorf("net: query: missing source or '(' group")
	case "(":
		pl, err := p.query(depth + 1)
		if err != nil {
			return nil, err
		}
		if c := p.next(); c != ")" {
			return nil, fmt.Errorf("net: query: expected ')', got %q", c)
		}
		return pl, nil
	case ")", "|":
		return nil, fmt.Errorf("net: query: unexpected %q", t)
	default:
		return plan.Scan(t), nil
	}
}

func (p *parser) stage(in *plan.Node, depth int) (*plan.Node, error) {
	switch t := p.next(); t {
	case "keyeq", "valeq":
		n, err := p.num(t + " operand")
		if err != nil {
			return nil, err
		}
		if t == "keyeq" {
			return in.KeyEq(n), nil
		}
		return in.ValEq(n), nil
	case "keymod", "valmod":
		m, err := p.num(t + " modulus")
		if err != nil {
			return nil, err
		}
		if m == 0 {
			return nil, fmt.Errorf("net: query: %s modulus must be nonzero", t)
		}
		r, err := p.num(t + " remainder")
		if err != nil {
			return nil, err
		}
		if r >= m {
			return nil, fmt.Errorf("net: query: %s remainder %d not below modulus %d", t, r, m)
		}
		if t == "keymod" {
			return in.KeyMod(m, r), nil
		}
		return in.ValMod(m, r), nil
	case "swap":
		return in.Swap(), nil
	case "join":
		right, err := p.term(depth + 1)
		if err != nil {
			return nil, err
		}
		return in.JoinRight(right), nil
	case "count":
		return in.Count(), nil
	case "distinct":
		return in.Distinct(), nil
	case "":
		return nil, fmt.Errorf("net: query: missing stage after '|'")
	default:
		return nil, fmt.Errorf("net: query: unknown stage %q", t)
	}
}
