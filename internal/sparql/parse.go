package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"rdfcube/internal/rdf"
)

// Prefixes maps prefix names (without the colon) to namespace IRIs. The
// empty prefix "" is the default namespace for ":local" names.
type Prefixes map[string]string

// DefaultPrefixes returns the standard prefix table (rdf, rdfs, xsd).
func DefaultPrefixes() Prefixes {
	return Prefixes{
		"rdf":  rdf.RDFNS,
		"rdfs": rdf.RDFSNS,
		"xsd":  rdf.XSDNS,
	}
}

// ParseDatalog parses the paper's notation:
//
//	name(v1, v2, ...) :- s p o, s p o, ...
//
// Each atom position is a variable (bare identifier), an <IRI>, a
// prefixed:name, a quoted or numeric literal. Variables are bare
// identifiers; anything containing ':' is resolved as a prefixed name.
func ParseDatalog(text string, prefixes Prefixes) (*Query, error) {
	if prefixes == nil {
		prefixes = DefaultPrefixes()
	}
	text = strings.TrimSpace(text)
	sep := strings.Index(text, ":-")
	if sep < 0 {
		return nil, fmt.Errorf("sparql: missing ':-' in %q", text)
	}
	head := strings.TrimSpace(text[:sep])
	body := strings.TrimSpace(text[sep+2:])

	q := &Query{}
	open := strings.Index(head, "(")
	close_ := strings.LastIndex(head, ")")
	if open < 0 || close_ < open {
		return nil, fmt.Errorf("sparql: malformed head %q", head)
	}
	q.Name = strings.TrimSpace(head[:open])
	for _, v := range strings.Split(head[open+1:close_], ",") {
		v = strings.TrimSpace(v)
		if v == "" {
			return nil, fmt.Errorf("sparql: empty head variable in %q", head)
		}
		q.Head = append(q.Head, v)
	}

	atoms, err := splitAtoms(body)
	if err != nil {
		return nil, err
	}
	for _, atom := range atoms {
		toks, err := splitTerms(atom)
		if err != nil {
			return nil, err
		}
		if len(toks) != 3 {
			return nil, fmt.Errorf("sparql: atom %q must have 3 terms, got %d", atom, len(toks))
		}
		var tp TriplePattern
		if tp.S, err = parseNode(toks[0], prefixes, false); err != nil {
			return nil, err
		}
		if tp.P, err = parseNode(toks[1], prefixes, true); err != nil {
			return nil, err
		}
		if tp.O, err = parseNode(toks[2], prefixes, false); err != nil {
			return nil, err
		}
		q.Patterns = append(q.Patterns, tp)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParseDatalog is ParseDatalog that panics on error; for fixtures.
func MustParseDatalog(text string, prefixes Prefixes) *Query {
	q, err := ParseDatalog(text, prefixes)
	if err != nil {
		panic(err)
	}
	return q
}

// splitAtoms splits the body on commas that are outside quotes and <...>.
func splitAtoms(body string) ([]string, error) {
	var atoms []string
	depth := 0
	inQuote := false
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			if i == 0 || body[i-1] != '\\' {
				inQuote = !inQuote
			}
		case '<':
			if !inQuote {
				depth++
			}
		case '>':
			if !inQuote {
				depth--
			}
		case ',':
			if !inQuote && depth == 0 {
				atoms = append(atoms, strings.TrimSpace(body[start:i]))
				start = i + 1
			}
		}
	}
	if inQuote {
		return nil, fmt.Errorf("sparql: unterminated quote in %q", body)
	}
	last := strings.TrimSpace(body[start:])
	if last != "" {
		atoms = append(atoms, last)
	}
	if len(atoms) == 0 {
		return nil, fmt.Errorf("sparql: empty body")
	}
	return atoms, nil
}

// splitTerms splits an atom into whitespace-separated tokens, keeping
// quoted literals (with suffixes) and <IRI>s intact.
func splitTerms(atom string) ([]string, error) {
	var toks []string
	i := 0
	n := len(atom)
	for i < n {
		c := atom[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '<':
			j := strings.IndexByte(atom[i:], '>')
			if j < 0 {
				return nil, fmt.Errorf("sparql: unterminated IRI in %q", atom)
			}
			toks = append(toks, atom[i:i+j+1])
			i += j + 1
		case c == '"':
			j := i + 1
			for j < n && (atom[j] != '"' || atom[j-1] == '\\') {
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("sparql: unterminated literal in %q", atom)
			}
			j++
			for j < n && atom[j] != ' ' && atom[j] != '\t' {
				j++
			}
			toks = append(toks, atom[i:j])
			i = j
		default:
			j := i
			for j < n && atom[j] != ' ' && atom[j] != '\t' {
				j++
			}
			toks = append(toks, atom[i:j])
			i = j
		}
	}
	return toks, nil
}

// ParseTerm parses a constant RDF term in the datalog surface syntax:
// <IRI>, prefixed:name, "literal" (with optional @lang or ^^<datatype>),
// integer, float, or _:blank. Bare numeric tokens are canonicalized
// (007 → 7, 1e3 → 1000), so a typed-in value always equals the term a
// data loader would have interned; quote a literal to keep its exact
// lexical form. Bare identifiers — which the query parser would read as
// variables — are rejected: a constant position needs a constant. Used
// wherever term values arrive as strings (CLI flags, server JSON Σ
// restrictions).
func ParseTerm(tok string, prefixes Prefixes) (rdf.Term, error) {
	if prefixes == nil {
		prefixes = DefaultPrefixes()
	}
	tok = strings.TrimSpace(tok)
	if v, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return rdf.NewInt(v), nil
	}
	if v, err := strconv.ParseFloat(tok, 64); err == nil && strings.ContainsAny(tok, ".eE") {
		return rdf.NewFloat(v), nil
	}
	n, err := parseNode(tok, prefixes, false)
	if err != nil {
		return rdf.Term{}, err
	}
	if n.IsVar() {
		return rdf.Term{}, fmt.Errorf("sparql: %q is not a constant term (quote it for a plain literal)", tok)
	}
	return n.Term, nil
}

// parseNode resolves one token to a Node.
func parseNode(tok string, prefixes Prefixes, predicatePos bool) (Node, error) {
	switch {
	case tok == "a" && predicatePos:
		return C(rdf.Type), nil
	case strings.HasPrefix(tok, "?"):
		return V(tok[1:]), nil
	case strings.HasPrefix(tok, "<") && strings.HasSuffix(tok, ">"):
		return IRI(tok[1 : len(tok)-1]), nil
	case strings.HasPrefix(tok, `"`):
		t, err := parseLiteralToken(tok)
		if err != nil {
			return Node{}, err
		}
		return C(t), nil
	case strings.HasPrefix(tok, "_:"):
		return C(rdf.NewBlank(tok[2:])), nil
	}
	// Numeric literal?
	if _, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return C(rdf.NewTypedLiteral(tok, rdf.XSDInteger)), nil
	}
	if _, err := strconv.ParseFloat(tok, 64); err == nil && strings.ContainsAny(tok, ".eE") {
		return C(rdf.NewTypedLiteral(tok, rdf.XSDDouble)), nil
	}
	// Prefixed name?
	if colon := strings.Index(tok, ":"); colon >= 0 {
		ns, ok := prefixes[tok[:colon]]
		if !ok {
			return Node{}, fmt.Errorf("sparql: unknown prefix %q in %q", tok[:colon], tok)
		}
		return IRI(ns + tok[colon+1:]), nil
	}
	// Bare identifier: a variable (the paper writes variables unadorned).
	if !isIdent(tok) {
		return Node{}, fmt.Errorf("sparql: unrecognized token %q", tok)
	}
	return V(tok), nil
}

func parseLiteralToken(tok string) (rdf.Term, error) {
	j := 1
	for j < len(tok) && (tok[j] != '"' || tok[j-1] == '\\') {
		j++
	}
	if j >= len(tok) {
		return rdf.Term{}, fmt.Errorf("sparql: unterminated literal %q", tok)
	}
	lex := strings.ReplaceAll(tok[1:j], `\"`, `"`)
	rest := tok[j+1:]
	switch {
	case rest == "":
		return rdf.NewLiteral(lex), nil
	case strings.HasPrefix(rest, "@"):
		return rdf.NewLangLiteral(lex, rest[1:]), nil
	case strings.HasPrefix(rest, "^^<") && strings.HasSuffix(rest, ">"):
		return rdf.NewTypedLiteral(lex, rest[3:len(rest)-1]), nil
	default:
		return rdf.Term{}, fmt.Errorf("sparql: malformed literal suffix in %q", tok)
	}
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
