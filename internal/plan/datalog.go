package plan

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Datalog surface syntax. Programs are rules over binary atoms with
// u64-typed arguments:
//
//	tc(x,z) :- tc(x,y), e(y,z).
//	sg(x,y) :- e(p,x), e(p,y), x != y.
//	deg(x, count(y)) :- e(x,y).
//	?- tc(5, y).
//
// Arguments are variables (identifiers), u64 constants, or the wildcard `_`;
// each `_` is a fresh anonymous variable, so `?- tc(_, _).` means "any pair"
// and repeated wildcards never join. Wildcards are rejected in rule heads
// and constraints, where a never-bound variable cannot mean anything. Bodies
// may also carry disequality constraints (`x != y`, `x != 7`). Predicates
// with rules are intensional (IDB); predicates appearing only in bodies are
// extensional (EDB) and resolve to registered sources. The optional
// `?- p(a, b).` query directive selects the result predicate (default: the
// first rule's head) and restricts it by any constant arguments. Stratified
// negation is deferred; all rules are positive.
//
// One aggregate is allowed: the query predicate's rules may all write their
// head as p(x, count(y)), which relates each key x to the number of distinct
// y the rules derive for it. The counted variable must be bound in the body
// and differ from the key, and no body may reference p, so the count never
// sits on a recursive path.
//
// Planner restriction: every intermediate result is a binary (key, value)
// collection, so rule bodies must be join-connected — after the first atom,
// each subsequent atom must share at least one variable with those already
// joined, and at most two variables may stay live at any point. Bodies that
// violate this (e.g. cartesian products such as
// `h(x,y) :- e(x,y), f(a,b).`) are valid Datalog but are rejected at compile
// time with a "no feasible join order" error.

// Term is one atom argument: a variable (Var non-empty) or a u64 constant.
type Term struct {
	Var   string
	Const uint64
}

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

func (t Term) String() string {
	if t.IsVar() {
		if isAnon(t.Var) {
			return "_"
		}
		return t.Var
	}
	return strconv.FormatUint(t.Const, 10)
}

// anonVar names the i-th wildcard occurrence. "#" cannot appear in a parsed
// identifier (it starts a comment), so generated names never collide with
// user variables.
func anonVar(i int) string { return fmt.Sprintf("_#%d", i) }

// isAnon reports whether v is a parser-generated wildcard variable.
func isAnon(v string) bool { return strings.HasPrefix(v, "_#") }

// Atom is one binary predicate application. In a rule head, Count marks the
// aggregate form p(x, count(y)): Args[1] is the counted variable y.
type Atom struct {
	Pred  string
	Args  [2]Term
	Count bool
}

func (a Atom) String() string {
	v := a.Args[1].String()
	if a.Count {
		v = "count(" + v + ")"
	}
	return fmt.Sprintf("%s(%s, %s)", a.Pred, a.Args[0], v)
}

// Constraint is one body disequality L != R.
type Constraint struct {
	L, R Term
}

func (c Constraint) String() string { return fmt.Sprintf("%s != %s", c.L, c.R) }

// Rule is head :- body, constraints.
type Rule struct {
	Head Atom
	Body []Atom
	Neq  []Constraint
}

// Program is a parsed Datalog program.
type Program struct {
	Rules []Rule
	// Query is the optional `?- p(a, b).` directive.
	Query *Atom
}

// Parser limits: programs arrive over the network.
const (
	maxRules     = 256
	maxBodyAtoms = 8
)

// ErrParse reports malformed Datalog source. Parsing never panics.
var ErrParse = errors.New("plan: datalog parse error")

func parseErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrParse, fmt.Sprintf(format, args...))
}

type dlToken struct {
	kind byte // 'i' ident, 'n' number, or the literal symbol byte; ':' is ":-", '?' is "?-", '!' is "!="
	text string
	num  uint64
}

func dlTokenize(src string) ([]dlToken, error) {
	var toks []dlToken
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '%' || c == '#': // comment to end of line
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '(' || c == ')' || c == ',' || c == '.':
			toks = append(toks, dlToken{kind: c})
			i++
		case c == ':':
			if i+1 >= len(src) || src[i+1] != '-' {
				return nil, parseErrf("expected \":-\" at byte %d", i)
			}
			toks = append(toks, dlToken{kind: ':'})
			i += 2
		case c == '?':
			if i+1 >= len(src) || src[i+1] != '-' {
				return nil, parseErrf("expected \"?-\" at byte %d", i)
			}
			toks = append(toks, dlToken{kind: '?'})
			i += 2
		case c == '!':
			if i+1 >= len(src) || src[i+1] != '=' {
				return nil, parseErrf("expected \"!=\" at byte %d", i)
			}
			toks = append(toks, dlToken{kind: '!'})
			i += 2
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			n, err := strconv.ParseUint(src[i:j], 10, 64)
			if err != nil {
				return nil, parseErrf("number %q out of range", src[i:j])
			}
			toks = append(toks, dlToken{kind: 'n', num: n, text: src[i:j]})
			i = j
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
			j := i
			for j < len(src) && (src[j] == '_' ||
				(src[j] >= 'a' && src[j] <= 'z') ||
				(src[j] >= 'A' && src[j] <= 'Z') ||
				(src[j] >= '0' && src[j] <= '9')) {
				j++
			}
			toks = append(toks, dlToken{kind: 'i', text: src[i:j]})
			i = j
		default:
			return nil, parseErrf("unexpected byte %q at offset %d", string(c), i)
		}
	}
	return toks, nil
}

type dlParser struct {
	toks []dlToken
	pos  int
	anon int // wildcards renamed so far
}

func (p *dlParser) peek() (dlToken, bool) {
	if p.pos < len(p.toks) {
		return p.toks[p.pos], true
	}
	return dlToken{}, false
}

func (p *dlParser) next() (dlToken, bool) {
	t, ok := p.peek()
	if ok {
		p.pos++
	}
	return t, ok
}

func (p *dlParser) expect(kind byte, what string) (dlToken, error) {
	t, ok := p.next()
	if !ok {
		return t, parseErrf("unexpected end of program, expected %s", what)
	}
	if t.kind != kind {
		return t, parseErrf("expected %s, got %s", what, dlTokenName(t))
	}
	return t, nil
}

func dlTokenName(t dlToken) string {
	switch t.kind {
	case 'i':
		return fmt.Sprintf("identifier %q", t.text)
	case 'n':
		return fmt.Sprintf("number %s", t.text)
	case ':':
		return `":-"`
	case '?':
		return `"?-"`
	case '!':
		return `"!="`
	default:
		return strconv.Quote(string(t.kind))
	}
}

func (p *dlParser) term() (Term, error) {
	t, ok := p.next()
	if !ok {
		return Term{}, parseErrf("unexpected end of program, expected a term")
	}
	switch t.kind {
	case 'i':
		if t.text == "_" {
			// Each wildcard is a fresh anonymous variable: `p(_, _)` matches
			// any pair, and wildcards across atoms never join.
			p.anon++
			return Term{Var: anonVar(p.anon)}, nil
		}
		return Term{Var: t.text}, nil
	case 'n':
		return Term{Const: t.num}, nil
	}
	return Term{}, parseErrf("expected a variable or number, got %s", dlTokenName(t))
}

// atom parses the parenthesized arguments of pred. In a rule head (head
// set) the value argument may be the aggregate count(v).
func (p *dlParser) atom(pred string, head bool) (Atom, error) {
	a := Atom{Pred: pred}
	for i, open := range [2]byte{'(', ','} {
		if _, err := p.expect(open, strconv.Quote(string(open))); err != nil {
			return a, err
		}
		if head && p.atCount() {
			if i == 0 {
				return a, parseErrf("count in the key position of %q (it takes the value position)", pred)
			}
			p.pos += 2
			a.Count = true
		}
		var err error
		if a.Args[i], err = p.term(); err != nil {
			return a, err
		}
	}
	if a.Count {
		if _, err := p.expect(')', `")"`); err != nil {
			return a, err
		}
	}
	if _, err := p.expect(')', `")"`); err != nil {
		return a, err
	}
	return a, nil
}

// atCount reports whether the next tokens open the aggregate "count(".
func (p *dlParser) atCount() bool {
	return p.pos+1 < len(p.toks) && p.toks[p.pos].kind == 'i' &&
		p.toks[p.pos].text == "count" && p.toks[p.pos+1].kind == '('
}

// ParseDatalog parses a program. It never panics; malformed input yields an
// error wrapping ErrParse.
func ParseDatalog(src string) (*Program, error) {
	toks, err := dlTokenize(src)
	if err != nil {
		return nil, err
	}
	p := &dlParser{toks: toks}
	prog := &Program{}
	for {
		t, ok := p.peek()
		if !ok {
			break
		}
		if t.kind == '?' {
			p.next()
			id, err := p.expect('i', "a predicate name")
			if err != nil {
				return nil, err
			}
			a, err := p.atom(id.text, false)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect('.', `"."`); err != nil {
				return nil, err
			}
			if prog.Query != nil {
				return nil, parseErrf("multiple query directives")
			}
			prog.Query = &a
			continue
		}
		if t.kind != 'i' {
			return nil, parseErrf("expected a rule head, got %s", dlTokenName(t))
		}
		if len(prog.Rules) >= maxRules {
			return nil, parseErrf("more than %d rules", maxRules)
		}
		r, err := p.rule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	if len(prog.Rules) == 0 {
		return nil, parseErrf("program has no rules")
	}
	return prog, nil
}

func (p *dlParser) rule() (Rule, error) {
	var r Rule
	id, err := p.expect('i', "a predicate name")
	if err != nil {
		return r, err
	}
	if r.Head, err = p.atom(id.text, true); err != nil {
		return r, err
	}
	for _, tm := range r.Head.Args {
		if tm.IsVar() && isAnon(tm.Var) {
			return r, parseErrf(`wildcard "_" not allowed in the head of rule %q (head variables must be bound in the body)`, r.Head.Pred)
		}
	}
	t, ok := p.next()
	if !ok {
		return r, parseErrf(`unexpected end of program, expected ":-" or "."`)
	}
	if t.kind == '.' {
		return r, parseErrf("rule %s has no body (facts arrive as source updates, not rules)", r.Head)
	}
	if t.kind != ':' {
		return r, parseErrf(`expected ":-" or ".", got %s`, dlTokenName(t))
	}
	for {
		lit, ok := p.peek()
		if !ok {
			return r, parseErrf(`unexpected end of rule %s, expected a body literal`, r.Head)
		}
		if lit.kind == 'i' {
			// Could be an atom `p(x,y)` or a constraint `x != ...`: decide on
			// the following token.
			if p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == '!' {
				c, err := p.constraint()
				if err != nil {
					return r, err
				}
				r.Neq = append(r.Neq, c)
			} else {
				p.next()
				if len(r.Body) >= maxBodyAtoms {
					return r, parseErrf("rule %s has more than %d body atoms", r.Head, maxBodyAtoms)
				}
				a, err := p.atom(lit.text, false)
				if err != nil {
					return r, err
				}
				r.Body = append(r.Body, a)
			}
		} else if lit.kind == 'n' {
			c, err := p.constraint()
			if err != nil {
				return r, err
			}
			r.Neq = append(r.Neq, c)
		} else {
			return r, parseErrf("expected a body literal in rule %s, got %s", r.Head, dlTokenName(lit))
		}
		t, ok := p.next()
		if !ok {
			return r, parseErrf(`unexpected end of rule %s, expected "," or "."`, r.Head)
		}
		if t.kind == '.' {
			break
		}
		if t.kind != ',' {
			return r, parseErrf(`expected "," or "." in rule %s, got %s`, r.Head, dlTokenName(t))
		}
	}
	if len(r.Body) == 0 {
		return r, parseErrf("rule %s has constraints but no atoms", r.Head)
	}
	return r, nil
}

func (p *dlParser) constraint() (Constraint, error) {
	var c Constraint
	var err error
	if c.L, err = p.term(); err != nil {
		return c, err
	}
	if _, err = p.expect('!', `"!="`); err != nil {
		return c, err
	}
	if c.R, err = p.term(); err != nil {
		return c, err
	}
	if !c.L.IsVar() && !c.R.IsVar() {
		return c, parseErrf("constraint %s compares two constants", c)
	}
	for _, tm := range []Term{c.L, c.R} {
		if tm.IsVar() && isAnon(tm.Var) {
			return c, parseErrf(`wildcard "_" not allowed in a constraint`)
		}
	}
	return c, nil
}
