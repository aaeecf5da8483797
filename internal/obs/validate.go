package obs

// ValidateExposition: a strict line-format checker for the Prometheus
// text exposition (0.0.4). It is library code, not test-only, so the
// package's own tests, the server's /metrics tests and the CI smoke
// can all run the same validator against a live scrape.
//
// Checked invariants:
//
//   - every line is a # HELP / # TYPE comment or a sample
//   - # TYPE precedes its family's samples and names a known type
//   - metric and label names are legal, label values quoted with only
//     legal escapes, sample values parse as Go floats
//   - no duplicate (name, labelset) series
//   - histogram series expose _bucket/_sum/_count, buckets are
//     cumulative (non-decreasing in le order), an le="+Inf" bucket
//     exists and equals _count

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// histSeries accumulates one histogram series' samples for the
// cross-line invariants.
type histSeries struct {
	buckets []bucketSample // in exposition order
	hasInf  bool
	infVal  float64
	count   float64
	hasCnt  bool
}

type bucketSample struct {
	le  float64
	val float64
}

// ValidateExposition reads a full exposition and returns the first
// violation found (nil when the text is valid).
func ValidateExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	types := map[string]string{} // family -> declared type
	seen := map[string]bool{}    // name + labels, duplicate detection
	hists := map[string]*histSeries{}
	sawSample := map[string]bool{} // family -> sample seen (TYPE must precede)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := validateComment(line, types, sawSample); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		key := name + labels
		if seen[key] {
			return fmt.Errorf("line %d: duplicate series %s%s", lineNo, name, labels)
		}
		seen[key] = true
		fam := familyOf(name, types)
		sawSample[fam] = true
		typ, ok := types[fam]
		if !ok {
			return fmt.Errorf("line %d: sample %s without a preceding # TYPE", lineNo, name)
		}
		if typ == "counter" && value < 0 {
			return fmt.Errorf("line %d: counter %s has negative value %g", lineNo, name, value)
		}
		if typ == "histogram" {
			if err := collectHistogram(name, fam, labels, value, hists); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := hists[k].check(k); err != nil {
			return err
		}
	}
	return nil
}

// validateComment checks a # HELP / # TYPE line and records the type.
func validateComment(line string, types map[string]string, sawSample map[string]bool) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 || fields[0] != "#" {
		return nil // free-form comment: legal, ignored
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", line)
		}
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], fields[3]
		if !validMetricName(name) {
			return fmt.Errorf("TYPE line with bad metric name %q", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q for %s", typ, name)
		}
		if _, dup := types[name]; dup {
			return fmt.Errorf("second TYPE line for %s", name)
		}
		if sawSample[name] {
			return fmt.Errorf("TYPE line for %s after its samples", name)
		}
		types[name] = typ
	}
	return nil
}

// parseSample splits a sample line into name, rendered labels and value.
func parseSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unterminated label block in %q", line)
		}
		labels = rest[i : j+1]
		if err := validateLabels(labels); err != nil {
			return "", "", 0, fmt.Errorf("%w in %q", err, line)
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		k := strings.IndexByte(rest, ' ')
		if k < 0 {
			return "", "", 0, fmt.Errorf("sample without value: %q", line)
		}
		name = rest[:k]
		rest = strings.TrimSpace(rest[k:])
	}
	if !validMetricName(name) {
		return "", "", 0, fmt.Errorf("bad metric name %q", name)
	}
	// A timestamp may follow the value; only the value is mandatory.
	valField := rest
	if k := strings.IndexByte(rest, ' '); k >= 0 {
		valField = rest[:k]
	}
	value, err = parseExpositionFloat(valField)
	if err != nil {
		return "", "", 0, fmt.Errorf("bad sample value %q: %v", valField, err)
	}
	return name, labels, value, nil
}

// validateLabels checks a rendered {k="v",...} block.
func validateLabels(block string) error {
	inner := block[1 : len(block)-1]
	if inner == "" {
		return fmt.Errorf("empty label block")
	}
	for len(inner) > 0 {
		eq := strings.IndexByte(inner, '=')
		if eq <= 0 {
			return fmt.Errorf("malformed label pair near %q", inner)
		}
		lname := inner[:eq]
		if !validLabelName(lname) {
			return fmt.Errorf("bad label name %q", lname)
		}
		rest := inner[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return fmt.Errorf("unquoted label value near %q", rest)
		}
		// Scan the quoted value, honoring \\ \" \n escapes.
		i := 1
		for {
			if i >= len(rest) {
				return fmt.Errorf("unterminated label value near %q", rest)
			}
			if rest[i] == '\\' {
				if i+1 >= len(rest) || !strings.ContainsRune(`\"n`, rune(rest[i+1])) {
					return fmt.Errorf("bad escape in label value near %q", rest)
				}
				i += 2
				continue
			}
			if rest[i] == '"' {
				break
			}
			i++
		}
		inner = rest[i+1:]
		if strings.HasPrefix(inner, ",") {
			inner = inner[1:]
			if inner == "" {
				return fmt.Errorf("trailing comma in label block")
			}
		} else if inner != "" {
			return fmt.Errorf("missing comma between labels near %q", inner)
		}
	}
	return nil
}

// collectHistogram files one histogram-family sample into its series
// accumulator, keyed by family + labels-without-le.
func collectHistogram(name, fam, labels string, value float64, hists map[string]*histSeries) error {
	suffix := strings.TrimPrefix(name, fam)
	key := fam + stripLabel(labels, "le")
	hs := hists[key]
	if hs == nil {
		hs = &histSeries{}
		hists[key] = hs
	}
	switch suffix {
	case "_bucket":
		le, ok := labelValue(labels, "le")
		if !ok {
			return fmt.Errorf("histogram bucket %s%s without le label", name, labels)
		}
		if le == "+Inf" {
			hs.hasInf = true
			hs.infVal = value
			return nil
		}
		f, err := parseExpositionFloat(le)
		if err != nil {
			return fmt.Errorf("bad le value %q: %v", le, err)
		}
		hs.buckets = append(hs.buckets, bucketSample{le: f, val: value})
	case "_sum":
	case "_count":
		hs.count = value
		hs.hasCnt = true
	case "":
		return fmt.Errorf("bare sample %s for histogram family %s", name, fam)
	default:
		return fmt.Errorf("unknown histogram suffix %q on %s", suffix, name)
	}
	return nil
}

// check enforces the per-series histogram invariants after the full
// text has been read.
func (hs *histSeries) check(key string) error {
	if !hs.hasInf {
		return fmt.Errorf("histogram %s: no le=\"+Inf\" bucket", key)
	}
	if !hs.hasCnt {
		return fmt.Errorf("histogram %s: no _count sample", key)
	}
	if hs.infVal != hs.count {
		return fmt.Errorf("histogram %s: +Inf bucket %g != count %g", key, hs.infVal, hs.count)
	}
	prevLe := math.Inf(-1)
	prevVal := 0.0
	for _, b := range hs.buckets {
		if b.le <= prevLe {
			return fmt.Errorf("histogram %s: le bounds not increasing (%g after %g)", key, b.le, prevLe)
		}
		if b.val < prevVal {
			return fmt.Errorf("histogram %s: cumulative bucket decreased (%g after %g)", key, b.val, prevVal)
		}
		prevLe, prevVal = b.le, b.val
	}
	if len(hs.buckets) > 0 && hs.buckets[len(hs.buckets)-1].val > hs.infVal {
		return fmt.Errorf("histogram %s: finite bucket exceeds +Inf bucket", key)
	}
	return nil
}

// familyOf maps a sample name to its family: histogram and summary
// samples carry _bucket/_sum/_count suffixes on the declared family
// name.
func familyOf(name string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		switch types[base] {
		case "histogram", "summary":
			return base
		}
	}
	return name
}

// labelValue extracts one label's (unescaped-free) value from a
// rendered block.
func labelValue(block, name string) (string, bool) {
	needle := name + `="`
	i := strings.Index(block, needle)
	if i < 0 {
		return "", false
	}
	rest := block[i+len(needle):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return "", false
	}
	return rest[:j], true
}

// stripLabel removes one label pair from a rendered block (for keying
// histogram series without their le).
func stripLabel(block, name string) string {
	if block == "" {
		return ""
	}
	inner := block[1 : len(block)-1]
	parts := strings.Split(inner, ",")
	kept := parts[:0]
	for _, p := range parts {
		if !strings.HasPrefix(p, name+"=") {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		return ""
	}
	return "{" + strings.Join(kept, ",") + "}"
}

// parseExpositionFloat accepts the exposition's float syntax, including
// +Inf/-Inf/NaN.
func parseExpositionFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
