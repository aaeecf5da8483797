package server

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"rdfcube/internal/algebra"
	"rdfcube/internal/dict"
	"rdfcube/internal/rdf"
)

// renderCubeReference is renderCube without the per-response term memo:
// every cell decoded and rendered on its own.
func renderCubeReference(cube *algebra.Relation, d *dict.Dictionary) *QueryResponse {
	sorted := &algebra.Relation{Cols: cube.Cols, Rows: slices.Clone(cube.Rows)}
	sorted.Sort()
	rows := make([][]string, len(sorted.Rows))
	for i, row := range sorted.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			if v.Kind == algebra.TermValue {
				if t, ok := d.Decode(v.ID); ok {
					cells[j] = t.String()
					continue
				}
			}
			cells[j] = v.String()
		}
		rows[i] = cells
	}
	return &QueryResponse{Strategy: "cached", Cols: sorted.Cols, Rows: rows, Cells: len(rows), ElapsedNs: 7}
}

// TestRenderCubeMatchesReference: the memoized renderer writes the same
// response bytes as rendering every cell on its own, for repeated and
// unknown terms and for the number forms Value.String distinguishes.
func TestRenderCubeMatchesReference(t *testing.T) {
	d := dict.New()
	terms := []rdf.Term{
		rdf.NewIRI("http://e.org/a"),
		rdf.NewIRI("http://e.org/b"),
		rdf.NewInt(42),
		rdf.NewLiteral(`say "hi"\n`),
		rdf.NewLangLiteral("chat", "fr"),
		rdf.NewBlank("b0"),
	}
	ids := make([]dict.ID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Encode(tm)
	}
	unknown := ids[len(ids)-1] + 100 // never encoded: rendered as tN
	nums := []float64{
		0, math.Copysign(0, -1), 1, -7, 1.5, -2.25, 1e15 - 1, 1e15, -1e15, 1e15 + 2,
		999999999999999.5, 1e300, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
	}
	cube := algebra.NewRelation("d0", "d1", "v")
	for i, f := range nums {
		for j := range ids {
			cube.Append(algebra.Row{algebra.TermV(ids[j]), algebra.TermV(ids[(i+j)%len(ids)]), algebra.NumV(f)})
		}
		cube.Append(algebra.Row{algebra.TermV(unknown), algebra.KeyV(uint64(i)), algebra.NumV(f)})
	}

	got, err := json.Marshal(renderCube(cube, d, "cached", 7))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(renderCubeReference(cube, d))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("memoized render differs from the reference\n got %s\nwant %s", got, want)
	}
}
