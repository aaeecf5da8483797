package server

// The /query response body, appended straight from the cube. It is the
// encoding/json rendering of QueryResponse byte for byte, without the
// [][]string it would need: each distinct term is escaped once per
// response and copied from the body for its other cells.

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"rdfcube/internal/algebra"
	"rdfcube/internal/dict"
	"rdfcube/internal/obs"
	"rdfcube/internal/viewreg"
)

// termMemo maps a term ID to the [start, end) bytes of its JSON string
// in the body being built.
type termMemo map[dict.ID][2]int

// queryBody is a pooled /query body buffer with its term memo.
type queryBody struct {
	buf   []byte
	terms termMemo
}

// Pooled bodies are capped so one huge answer, or one with very many
// distinct terms, does not stay resident in the pool.
const (
	maxPooledBody  = 4 << 20
	maxPooledTerms = 1 << 16
)

var bodyPool = sync.Pool{New: func() any { return &queryBody{terms: termMemo{}} }}

func getQueryBody() *queryBody { return bodyPool.Get().(*queryBody) }

func putQueryBody(b *queryBody) {
	if cap(b.buf) > maxPooledBody || len(b.terms) > maxPooledTerms {
		return
	}
	b.buf = b.buf[:0]
	clear(b.terms)
	bodyPool.Put(b)
}

// appendQueryBody appends the /query response body for cube to dst:
// QueryResponse's fields in order, up to elapsed_ns, the closing brace
// and encoding/json's trailing newline. Rows come in CompareRows order,
// so equal cubes serialize byte-identically whatever strategy produced
// them. A cube already in that order — one the registry evaluated or
// derived — costs one linear check; any other, such as a direct answer
// or a maintained view, is sorted through a copy of its row list, as
// the rows are shared.
// Terms render in N-Triples syntax through d, numbers, keys and unknown
// IDs as algebra.Value.String does. terms must be empty: it memoizes
// the terms written into this body.
func appendQueryBody(dst []byte, terms termMemo, cube *algebra.Relation, d *dict.Dictionary, strategy viewreg.Strategy, elapsedNs int64) []byte {
	rows := cube.Rows
	if !slices.IsSortedFunc(rows, algebra.CompareRows) {
		rows = slices.Clone(rows)
		slices.SortFunc(rows, algebra.CompareRows)
	}
	dst = append(dst, `{"strategy":`...)
	dst = appendJSONString(dst, string(strategy))
	dst = append(dst, `,"cols":`...)
	if len(cube.Cols) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range cube.Cols {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, c)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"rows":[`...)
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendValue(dst, terms, d, v)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `],"cells":`...)
	dst = strconv.AppendInt(dst, int64(len(rows)), 10)
	dst = append(dst, `,"elapsed_ns":`...)
	dst = strconv.AppendInt(dst, elapsedNs, 10)
	return append(dst, "}\n"...)
}

// appendValue appends one cell as a JSON string: a term decoded once per
// body and copied from it after, anything else in Value.String's form —
// integral numbers below 1e15 without a point (so -0 is 0), other
// numbers as %g, keys kN, IDs the dictionary does not know tN.
func appendValue(dst []byte, terms termMemo, d *dict.Dictionary, v algebra.Value) []byte {
	switch v.Kind {
	case algebra.TermValue:
		if span, ok := terms[v.ID]; ok {
			return append(dst, dst[span[0]:span[1]]...)
		}
		if t, ok := d.Decode(v.ID); ok {
			start := len(dst)
			dst = appendJSONString(dst, t.String())
			terms[v.ID] = [2]int{start, len(dst)}
			return dst
		}
		dst = append(dst, `"t`...)
		dst = strconv.AppendUint(dst, uint64(v.ID), 10)
	case algebra.NumValue:
		dst = append(dst, '"')
		if v.Num == math.Trunc(v.Num) && math.Abs(v.Num) < 1e15 {
			dst = strconv.AppendInt(dst, int64(v.Num), 10)
		} else {
			dst = strconv.AppendFloat(dst, v.Num, 'g', -1, 64)
		}
	case algebra.KeyValue:
		dst = append(dst, `"k`...)
		dst = strconv.AppendUint(dst, v.Key, 10)
	default:
		dst = append(dst, `"?`...)
	}
	return append(dst, '"')
}

// appendJSONString appends s as encoding/json writes it, HTML-safe
// escaping included, without allocating: ", \ and the control bytes
// escaped (\b \f \n \r \t by name, the others as \u00XX), <, > and &
// as \u003c, \u003e and \u0026, U+2028 and U+2029 as \u2028 and
// \u2029, and each byte of invalid UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendExplain reopens a body appendQueryBody finished and adds the
// fields ?explain=analyze sets — trace_id, explain, cost — after
// elapsed_ns, tagged as QueryResponse tags them.
func appendExplain(body []byte, dump *obs.TraceDump, cost *obs.CostSnapshot) ([]byte, error) {
	fields, err := json.Marshal(struct {
		TraceID string            `json:"trace_id,omitempty"`
		Explain *obs.SpanDump     `json:"explain,omitempty"`
		Cost    *obs.CostSnapshot `json:"cost,omitempty"`
	}{dump.ID, dump.Root, cost})
	if err != nil {
		return nil, err
	}
	if len(fields) == len("{}") {
		return body, nil
	}
	body = append(body[:len(body)-len("}\n")], ',')
	body = append(body, fields[1:]...) // the fields and their closing brace
	return append(body, '\n'), nil
}
