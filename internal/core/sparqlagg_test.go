package core_test

// The SPARQL 1.1 grouping-and-aggregation fragment the paper's
// related-work section positions AnQs against:
//
//	SELECT ?age (COUNT(?site) AS ?n)
//	WHERE { ?x rdf:type :Blogger . ?x :hasAge ?age .
//	        ?x :wrotePost ?p . ?p :postedOn ?site }
//	GROUP BY ?age
//
// Semantics follow the SPARQL specification: the WHERE pattern is
// evaluated under bag semantics, solutions are partitioned by the GROUP
// BY variables, and the aggregate folds each partition's bindings of the
// aggregated variable.
//
// This is strictly less expressive than an analytical query: classifier
// and measure share one BGP, so one cannot count a blogger's posts while
// classifying the blogger by properties the posts lack, nor keep the
// per-fact measure-bag structure of Definition 1. The tests below hold
// AnQs against this baseline, matching the paper's claim.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/bgp"
	"rdfcube/internal/core"
	"rdfcube/internal/dict"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

// aggSelect is a parsed SPARQL aggregate SELECT.
type aggSelect struct {
	// GroupVars are the plain projected variables, which must equal the
	// GROUP BY list (SPARQL requires projected non-aggregates to be
	// grouped).
	GroupVars []string
	// Agg is the aggregation function.
	Agg agg.Func
	// Distinct applies within the aggregate (e.g. COUNT(DISTINCT ?v)).
	Distinct bool
	// AggVar is the aggregated variable; Alias the output column name.
	AggVar, Alias string
	// Where is the graph pattern.
	Where []sparql.TriplePattern
}

// parseAggSelect parses the supported fragment:
//
//	[PREFIX name: <iri>]...
//	SELECT ?g1 ?g2 (FUNC(?v) AS ?alias) WHERE { ... } GROUP BY ?g1 ?g2
//
// FUNC ∈ COUNT, SUM, AVG, MIN, MAX, optionally with DISTINCT inside
// COUNT. Exactly one aggregate expression is supported.
func parseAggSelect(text string) (*aggSelect, error) {
	prefixes := sparql.DefaultPrefixes()
	rest := strings.TrimSpace(text)
	for {
		lower := strings.ToLower(rest)
		if !strings.HasPrefix(lower, "prefix") {
			break
		}
		line := rest[len("prefix"):]
		colon := strings.Index(line, ":")
		if colon < 0 {
			return nil, fmt.Errorf("aggselect: malformed PREFIX")
		}
		name := strings.TrimSpace(line[:colon])
		line = strings.TrimSpace(line[colon+1:])
		if !strings.HasPrefix(line, "<") {
			return nil, fmt.Errorf("aggselect: PREFIX needs <IRI>")
		}
		end := strings.Index(line, ">")
		if end < 0 {
			return nil, fmt.Errorf("aggselect: unterminated PREFIX IRI")
		}
		prefixes[name] = line[1:end]
		rest = strings.TrimSpace(line[end+1:])
	}
	lower := strings.ToLower(rest)
	if !strings.HasPrefix(lower, "select") {
		return nil, fmt.Errorf("aggselect: expected SELECT")
	}
	rest = strings.TrimSpace(rest[len("select"):])
	whereIdx := strings.Index(strings.ToLower(rest), "where")
	if whereIdx < 0 {
		return nil, fmt.Errorf("aggselect: missing WHERE")
	}
	q := &aggSelect{}
	if err := q.parseProjection(rest[:whereIdx]); err != nil {
		return nil, err
	}
	rest = strings.TrimSpace(rest[whereIdx+len("where"):])
	open := strings.Index(rest, "{")
	close_ := strings.LastIndex(rest, "}")
	if open != 0 || close_ < 0 {
		return nil, fmt.Errorf("aggselect: WHERE clause must be braced")
	}
	body := strings.ReplaceAll(rest[open+1:close_], "\n", " ")
	inner, err := parseWhere(body, prefixes)
	if err != nil {
		return nil, err
	}
	q.Where = inner

	tail := strings.TrimSpace(rest[close_+1:])
	if tail == "" {
		if len(q.GroupVars) > 0 {
			return nil, fmt.Errorf("aggselect: projected variables %v require GROUP BY", q.GroupVars)
		}
	} else {
		lowerTail := strings.ToLower(tail)
		if !strings.HasPrefix(lowerTail, "group by") {
			return nil, fmt.Errorf("aggselect: unsupported clause %q", tail)
		}
		var groupBy []string
		for _, tok := range strings.Fields(tail[len("group by"):]) {
			if !strings.HasPrefix(tok, "?") {
				return nil, fmt.Errorf("aggselect: GROUP BY supports only variables, got %q", tok)
			}
			groupBy = append(groupBy, tok[1:])
		}
		if err := sameStringSets(q.GroupVars, groupBy); err != nil {
			return nil, err
		}
	}
	return q, q.validate()
}

// parseProjection handles "?g1 ?g2 (COUNT(DISTINCT ?v) AS ?alias)".
func (q *aggSelect) parseProjection(s string) error {
	s = strings.TrimSpace(s)
	for len(s) > 0 {
		switch {
		case s[0] == '?':
			end := strings.IndexAny(s, " \t(")
			if end < 0 {
				end = len(s)
			}
			q.GroupVars = append(q.GroupVars, s[1:end])
			s = strings.TrimSpace(s[end:])
		case s[0] == '(':
			depth := 0
			end := -1
			for i, r := range s {
				if r == '(' {
					depth++
				}
				if r == ')' {
					depth--
					if depth == 0 {
						end = i
						break
					}
				}
			}
			if end < 0 {
				return fmt.Errorf("aggselect: unbalanced parentheses in projection")
			}
			if err := q.parseAggExpr(s[1:end]); err != nil {
				return err
			}
			s = strings.TrimSpace(s[end+1:])
		default:
			return fmt.Errorf("aggselect: unexpected token at %q", s)
		}
	}
	return nil
}

// parseAggExpr handles "COUNT(DISTINCT ?v) AS ?alias".
func (q *aggSelect) parseAggExpr(s string) error {
	if q.Agg != nil {
		return fmt.Errorf("aggselect: only one aggregate expression is supported")
	}
	asIdx := strings.LastIndex(strings.ToLower(s), " as ")
	if asIdx < 0 {
		return fmt.Errorf("aggselect: aggregate needs an AS alias in %q", s)
	}
	alias := strings.TrimSpace(s[asIdx+4:])
	if !strings.HasPrefix(alias, "?") {
		return fmt.Errorf("aggselect: alias must be a variable, got %q", alias)
	}
	q.Alias = alias[1:]
	expr := strings.TrimSpace(s[:asIdx])
	open := strings.Index(expr, "(")
	close_ := strings.LastIndex(expr, ")")
	if open < 0 || close_ < open {
		return fmt.Errorf("aggselect: malformed aggregate %q", expr)
	}
	funcName := strings.ToLower(strings.TrimSpace(expr[:open]))
	arg := strings.TrimSpace(expr[open+1 : close_])
	if strings.HasPrefix(strings.ToLower(arg), "distinct ") {
		q.Distinct = true
		arg = strings.TrimSpace(arg[len("distinct "):])
	}
	if !strings.HasPrefix(arg, "?") {
		return fmt.Errorf("aggselect: aggregate argument must be a variable, got %q", arg)
	}
	q.AggVar = arg[1:]
	f, err := agg.ByName(funcName)
	if err != nil {
		return fmt.Errorf("aggselect: %w", err)
	}
	if q.Distinct && f.Name() != "count" {
		return fmt.Errorf("aggselect: DISTINCT is only supported inside COUNT")
	}
	if q.Distinct {
		f = agg.CountDistinct
	}
	q.Agg = f
	return nil
}

func (q *aggSelect) validate() error {
	if q.Agg == nil {
		return fmt.Errorf("aggselect: query has no aggregate expression")
	}
	if len(q.Where) == 0 {
		return fmt.Errorf("aggselect: empty WHERE clause")
	}
	bodyVars := map[string]bool{}
	for _, tp := range q.Where {
		for _, v := range tp.Vars() {
			bodyVars[v] = true
		}
	}
	for _, v := range append(append([]string(nil), q.GroupVars...), q.AggVar) {
		if !bodyVars[v] {
			return fmt.Errorf("aggselect: variable ?%s not bound in WHERE", v)
		}
	}
	for _, v := range q.GroupVars {
		if v == q.Alias {
			return fmt.Errorf("aggselect: alias ?%s collides with a grouped variable", v)
		}
	}
	return nil
}

func sameStringSets(a, b []string) error {
	as, bs := map[string]bool{}, map[string]bool{}
	for _, v := range a {
		as[v] = true
	}
	for _, v := range b {
		bs[v] = true
	}
	for v := range as {
		if !bs[v] {
			return fmt.Errorf("aggselect: projected ?%s missing from GROUP BY", v)
		}
	}
	for v := range bs {
		if !as[v] {
			return fmt.Errorf("aggselect: GROUP BY ?%s not projected", v)
		}
	}
	return nil
}

// parseWhere reuses the sparql package pattern syntax via a synthetic
// datalog query (the datalog body grammar is identical).
func parseWhere(body string, prefixes sparql.Prefixes) ([]sparql.TriplePattern, error) {
	var atoms []string
	for _, stmt := range splitStatements(body) {
		stmt = strings.TrimSpace(stmt)
		if stmt != "" {
			atoms = append(atoms, stmt)
		}
	}
	if len(atoms) == 0 {
		return nil, fmt.Errorf("aggselect: empty WHERE clause")
	}
	// Each pattern's first variable serves as a head var so the synthetic
	// query validates; we only keep the patterns.
	synthetic := "q(" + firstVar(atoms) + ") :- " + strings.Join(atoms, ", ")
	q, err := sparql.ParseDatalog(synthetic, prefixes)
	if err != nil {
		return nil, fmt.Errorf("aggselect: WHERE clause: %w", err)
	}
	return q.Patterns, nil
}

// firstVar extracts some variable token from the atoms for the synthetic
// head.
func firstVar(atoms []string) string {
	for _, atom := range atoms {
		for _, tok := range strings.Fields(atom) {
			if strings.HasPrefix(tok, "?") {
				return tok[1:]
			}
		}
	}
	return "x"
}

// evalAggSelect answers the aggregate query over st: evaluate WHERE under bag
// semantics, group by GroupVars, aggregate AggVar. The result columns
// are GroupVars followed by Alias.
func evalAggSelect(st *store.Store, q *aggSelect) (*algebra.Relation, error) {
	inner := &sparql.Query{
		Name:     "w",
		Head:     append(append([]string(nil), q.GroupVars...), q.AggVar),
		Patterns: q.Where,
	}
	if err := inner.Validate(); err != nil {
		return nil, err
	}
	res, err := bgp.EvalBag(st, inner)
	if err != nil {
		return nil, err
	}
	rel := algebra.NewRelation(res.Vars...)
	for _, row := range res.Rows {
		r := make(algebra.Row, len(row))
		for i, id := range row {
			r[i] = algebra.TermV(id)
		}
		rel.Append(r)
	}
	resolve := func(id dict.ID) (float64, bool) {
		t, ok := st.Dict().Decode(id)
		if !ok {
			return 0, false
		}
		return t.AsFloat()
	}
	return rel.GroupAggregate(q.GroupVars, q.AggVar, q.Alias, q.Agg, resolve), nil
}

// splitStatements splits a WHERE block on "." separators outside quoted
// literals and <IRI> references.
func splitStatements(body string) []string {
	var parts []string
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
		case '.':
			if !inQuote && depth == 0 {
				parts = append(parts, body[start:i])
				start = i + 1
			}
		}
	}
	parts = append(parts, body[start:])
	return parts
}

const ns = "http://example.org/"

func iri(s string) rdf.Term { return rdf.NewIRI(ns + s) }

// bloggerGraph reproduces the Example 1/2 instance.
func bloggerGraph() *store.Store {
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	users := []struct {
		name  string
		age   int64
		city  string
		sites []string
	}{
		{"user1", 28, "Madrid", []string{"s1", "s1", "s2"}},
		{"user3", 35, "NY", []string{"s2"}},
		{"user4", 35, "NY", []string{"s3"}},
	}
	post := 0
	for _, u := range users {
		t := iri(u.name)
		add(t, rdf.Type, iri("Blogger"))
		add(t, iri("hasAge"), rdf.NewInt(u.age))
		add(t, iri("livesIn"), iri(u.city))
		for _, s := range u.sites {
			p := iri("post" + u.name + string(rune('a'+post)))
			post++
			add(t, iri("wrotePost"), p)
			add(p, iri("postedOn"), iri(s))
		}
	}
	return st
}

const queryText = `
PREFIX ex: <http://example.org/>
SELECT ?age ?city (COUNT(?site) AS ?n)
WHERE { ?x rdf:type ex:Blogger . ?x ex:hasAge ?age . ?x ex:livesIn ?city .
        ?x ex:wrotePost ?p . ?p ex:postedOn ?site }
GROUP BY ?age ?city`

func TestAggSelectParse(t *testing.T) {
	q, err := parseAggSelect(queryText)
	if err != nil {
		t.Fatalf("parseAggSelect: %v", err)
	}
	if len(q.GroupVars) != 2 || q.GroupVars[0] != "age" || q.GroupVars[1] != "city" {
		t.Errorf("GroupVars = %v", q.GroupVars)
	}
	if q.Agg.Name() != "count" || q.AggVar != "site" || q.Alias != "n" {
		t.Errorf("aggregate = %s(%s) AS %s", q.Agg.Name(), q.AggVar, q.Alias)
	}
	if len(q.Where) != 5 {
		t.Errorf("%d patterns, want 5", len(q.Where))
	}
}

func TestAggSelectMatchesPaperExample(t *testing.T) {
	st := bloggerGraph()
	q, err := parseAggSelect(queryText)
	if err != nil {
		t.Fatal(err)
	}
	out, err := evalAggSelect(st, q)
	if err != nil {
		t.Fatal(err)
	}
	// SPARQL counts per (age, city): 28/Madrid → 3 sites, 35/NY → 2.
	if out.Len() != 2 {
		t.Fatalf("groups = %d, want 2: %v", out.Len(), out.Rows)
	}
	vals := map[string]float64{}
	for _, row := range out.Rows {
		ageT, _ := st.Dict().Decode(row[0].ID)
		cityT, _ := st.Dict().Decode(row[1].ID)
		vals[ageT.Value()+"/"+cityT.Value()] = row[2].Num
	}
	if vals["28/"+ns+"Madrid"] != 3 || vals["35/"+ns+"NY"] != 2 {
		t.Errorf("vals = %v", vals)
	}
}

func TestAggSelectAgreesWithAnQWhenBodiesCoincide(t *testing.T) {
	// When the AnQ's classifier and measure share the SPARQL body, the
	// two formalisms agree — the "restricted case" of the related-work
	// discussion.
	st := bloggerGraph()
	q, err := parseAggSelect(queryText)
	if err != nil {
		t.Fatal(err)
	}
	sparqlOut, err := evalAggSelect(st, q)
	if err != nil {
		t.Fatal(err)
	}

	px := sparql.DefaultPrefixes()
	px[""] = ns
	c := sparql.MustParseDatalog(
		"c(x, age, city) :- x rdf:type :Blogger, x :hasAge age, x :livesIn city", px)
	m := sparql.MustParseDatalog(
		"m(x, site) :- x rdf:type :Blogger, x :wrotePost p, p :postedOn site", px)
	anq, err := core.New(c, m, agg.Count)
	if err != nil {
		t.Fatal(err)
	}
	anqOut, err := core.NewEvaluator(st).Answer(anq)
	if err != nil {
		t.Fatal(err)
	}
	// Same cells, same aggregates (schemas differ in column naming only).
	if sparqlOut.Len() != anqOut.Len() {
		t.Fatalf("SPARQL %d groups vs AnQ %d cells", sparqlOut.Len(), anqOut.Len())
	}
	key := func(rel *algebra.Relation) []string {
		var out []string
		for _, row := range rel.Rows {
			s := ""
			for _, v := range row[:len(row)-1] {
				s += v.String() + "|"
			}
			s += row[len(row)-1].String()
			out = append(out, s)
		}
		sort.Strings(out)
		return out
	}
	a, b := key(sparqlOut), key(anqOut)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestAnQMoreExpressiveThanSPARQL(t *testing.T) {
	// A blogger without posts: the single-BGP SPARQL query silently
	// drops them from all groups, while an AnQ with a *separate* measure
	// also drops them (Definition 1) — but an AnQ can classify on
	// attributes the measure path lacks. Here: classify by age only
	// (user5 has an age but no city); SPARQL's one BGP requires the city
	// pattern and loses user5's sites.
	st := bloggerGraph()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	add(iri("user5"), rdf.Type, iri("Blogger"))
	add(iri("user5"), iri("hasAge"), rdf.NewInt(28))
	// no livesIn for user5
	add(iri("user5"), iri("wrotePost"), iri("p9"))
	add(iri("p9"), iri("postedOn"), iri("s9"))

	// SPARQL: grouping by age but the WHERE still needs livesIn to also
	// return the city-classified cube elsewhere — model the restricted
	// query that an analyst would write with one BGP:
	q, err := parseAggSelect(`
		PREFIX ex: <http://example.org/>
		SELECT ?age (COUNT(?site) AS ?n)
		WHERE { ?x rdf:type ex:Blogger . ?x ex:hasAge ?age . ?x ex:livesIn ?city .
		        ?x ex:wrotePost ?p . ?p ex:postedOn ?site }
		GROUP BY ?age`)
	if err != nil {
		t.Fatal(err)
	}
	sparqlOut, err := evalAggSelect(st, q)
	if err != nil {
		t.Fatal(err)
	}
	// AnQ: classifier needs only the age; measure is independent.
	px := sparql.DefaultPrefixes()
	px[""] = ns
	c := sparql.MustParseDatalog("c(x, age) :- x rdf:type :Blogger, x :hasAge age", px)
	m := sparql.MustParseDatalog(
		"m(x, site) :- x rdf:type :Blogger, x :wrotePost p, p :postedOn site", px)
	anq, err := core.New(c, m, agg.Count)
	if err != nil {
		t.Fatal(err)
	}
	anqOut, err := core.NewEvaluator(st).Answer(anq)
	if err != nil {
		t.Fatal(err)
	}
	get := func(rel *algebra.Relation, age string) float64 {
		for _, row := range rel.Rows {
			t, _ := st.Dict().Decode(row[0].ID)
			if t.Value() == age {
				return row[len(row)-1].Num
			}
		}
		return -1
	}
	// The AnQ sees user5's site (28 → 3+1 = 4); SPARQL misses it (3).
	if got := get(anqOut, "28"); got != 4 {
		t.Errorf("AnQ count for age 28 = %g, want 4", got)
	}
	if got := get(sparqlOut, "28"); got != 3 {
		t.Errorf("SPARQL count for age 28 = %g, want 3 (city pattern drops user5)", got)
	}
}

func TestAggSelectCountDistinct(t *testing.T) {
	st := bloggerGraph()
	q, err := parseAggSelect(`
		PREFIX ex: <http://example.org/>
		SELECT ?age (COUNT(DISTINCT ?site) AS ?n)
		WHERE { ?x rdf:type ex:Blogger . ?x ex:hasAge ?age .
		        ?x ex:wrotePost ?p . ?p ex:postedOn ?site }
		GROUP BY ?age`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct {
		t.Fatal("DISTINCT not detected")
	}
	out, err := evalAggSelect(st, q)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, row := range out.Rows {
		ageT, _ := st.Dict().Decode(row[0].ID)
		vals[ageT.Value()] = row[1].Num
	}
	// user1 posts on s1,s1,s2 → 2 distinct; 35-year-olds on s2,s3 → 2.
	if vals["28"] != 2 || vals["35"] != 2 {
		t.Errorf("distinct counts = %v", vals)
	}
}

func TestAggSelectGlobalAggregateNoGroupBy(t *testing.T) {
	st := bloggerGraph()
	q, err := parseAggSelect(`
		PREFIX ex: <http://example.org/>
		SELECT (COUNT(?site) AS ?n)
		WHERE { ?x ex:wrotePost ?p . ?p ex:postedOn ?site }`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := evalAggSelect(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Rows[0][0].Num != 5 {
		t.Errorf("global count = %v", out.Rows)
	}
}

func TestAggSelectSumAvg(t *testing.T) {
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	add(iri("a"), iri("grp"), iri("g1"))
	add(iri("a"), iri("val"), rdf.NewInt(10))
	add(iri("b"), iri("grp"), iri("g1"))
	add(iri("b"), iri("val"), rdf.NewInt(20))
	add(iri("c"), iri("grp"), iri("g2"))
	add(iri("c"), iri("val"), rdf.NewInt(7))
	for _, tc := range []struct {
		fn   string
		want map[string]float64
	}{
		{"SUM", map[string]float64{"g1": 30, "g2": 7}},
		{"AVG", map[string]float64{"g1": 15, "g2": 7}},
		{"MIN", map[string]float64{"g1": 10, "g2": 7}},
		{"MAX", map[string]float64{"g1": 20, "g2": 7}},
	} {
		q, err := parseAggSelect(`
			PREFIX ex: <http://example.org/>
			SELECT ?g (` + tc.fn + `(?v) AS ?out)
			WHERE { ?x ex:grp ?g . ?x ex:val ?v }
			GROUP BY ?g`)
		if err != nil {
			t.Fatalf("%s: %v", tc.fn, err)
		}
		out, err := evalAggSelect(st, q)
		if err != nil {
			t.Fatalf("%s: %v", tc.fn, err)
		}
		for _, row := range out.Rows {
			g, _ := st.Dict().Decode(row[0].ID)
			local := strings.TrimPrefix(g.Value(), ns)
			if row[1].Num != tc.want[local] {
				t.Errorf("%s(%s) = %g, want %g", tc.fn, local, row[1].Num, tc.want[local])
			}
		}
	}
}

func TestAggSelectParseErrors(t *testing.T) {
	bad := []string{
		`SELECT ?g (COUNT(?v) AS ?n) WHERE { ?x <http://e/p> ?v }`,                                  // ?g unbound... actually bound check
		`SELECT ?g (COUNT(?v) AS ?n) WHERE { ?x <http://e/p> ?v . ?x <http://e/g> ?g }`,             // missing GROUP BY
		`SELECT (COUNT(?v) AS ?n) (SUM(?v) AS ?m) WHERE { ?x <http://e/p> ?v }`,                     // two aggregates
		`SELECT (MEDIAN(?v) AS ?n) WHERE { ?x <http://e/p> ?v }`,                                    // unknown function
		`SELECT (SUM(DISTINCT ?v) AS ?n) WHERE { ?x <http://e/p> ?v }`,                              // DISTINCT outside COUNT
		`SELECT (COUNT(?v) AS ?n) WHERE { ?x <http://e/p> ?w }`,                                     // agg var unbound
		`SELECT (COUNT(?v)) WHERE { ?x <http://e/p> ?v }`,                                           // missing AS
		`SELECT ?v (COUNT(?x) AS ?v) WHERE { ?x <http://e/p> ?v } GROUP BY ?v`,                      // alias collision
		`SELECT (COUNT(?v) AS ?n) WHERE { ?x <http://e/p> ?v } ORDER BY ?n`,                         // unsupported clause
		`SELECT (COUNT(?v) AS ?n) FROM <http://g> WHERE { ?x <http://e/p> ?v }`,                     // FROM unsupported
		`SELECT ?g (COUNT(?v) AS ?n) WHERE { ?x <http://e/g> ?g . ?x <http://e/p> ?v } GROUP BY ?h`, // GROUP BY mismatch
	}
	for _, text := range bad {
		if _, err := parseAggSelect(text); err == nil {
			t.Errorf("accepted malformed query %q", text)
		}
	}
}

func TestAggSelectIRIWithDotsInWhere(t *testing.T) {
	// Full IRIs contain dots; the statement splitter must not break them.
	st := store.New()
	st.Add(rdf.NewTriple(iri("a"), rdf.NewIRI("http://www.w3.org/x"), rdf.NewInt(1)))
	q, err := parseAggSelect(`
		SELECT (COUNT(?v) AS ?n)
		WHERE { ?x <http://www.w3.org/x> ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := evalAggSelect(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Rows[0][0].Num != 1 {
		t.Errorf("count = %v", out.Rows)
	}
}
