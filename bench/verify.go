package main

// Answer checking. A /query response is
//
//	{"strategy":S,"cols":[...],"rows":[...],"cells":N,"elapsed_ns":T}
//
// and two correct answers to the same query differ only in S and T, so
// the bytes between them are hashed and compared. Cutting the body by
// position instead of decoding it keeps the checker's cost per op far
// below the server's (loadgen.verify_us_per_op reports it).

import (
	"bytes"
	"hash/crc64"
	"strconv"
)

var (
	crcTable     = crc64.MakeTable(crc64.ECMA)
	answerPrefix = []byte(`{"strategy":"`)
	answerCols   = []byte(`","cols":`)
	answerCells  = []byte(`,"cells":`)
	answerTail   = []byte(`,"elapsed_ns":`)
)

// answer is the comparable part of a /query response.
type answer struct {
	strategy string
	hash     uint64
	cells    int
}

// parseAnswer cuts a response body into strategy, payload hash and cell
// count; ok is false when the body is not a query response.
func parseAnswer(body []byte) (a answer, ok bool) {
	if !bytes.HasPrefix(body, answerPrefix) {
		return a, false
	}
	rest := body[len(answerPrefix):]
	i := bytes.Index(rest, answerCols)
	tail := bytes.LastIndex(rest, answerTail)
	if i < 0 || tail < i {
		return a, false
	}
	payload := rest[i+2 : tail]
	c := bytes.LastIndex(payload, answerCells)
	if c < 0 {
		return a, false
	}
	cells, err := strconv.Atoi(string(payload[c+len(answerCells):]))
	if err != nil {
		return a, false
	}
	return answer{strategy: string(rest[:i]), hash: crc64.Checksum(payload, crcTable), cells: cells}, true
}
