package obs

import (
	"bytes"
	"strings"
	"testing"
)

// expose renders r and fails the test on error.
func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

// TestExpositionGolden pins the rendered text of each collector kind
// and runs the full output through the validator.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "Requests served.").Add(42)
	r.Counter("req_by_route_total", "Requests by route.", "route", "/query").Add(7)
	r.Counter("req_by_route_total", "Requests by route.", "route", "/insert").Add(3)
	r.Gauge("in_flight", "Requests in flight.").Set(5)
	r.GaugeFunc("uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	h := r.Histogram("latency_seconds", "Latency.")
	h.Observe(5_000) // bucket le=8192ns = 8.192e-6s
	h.Observe(5_000)
	h.Observe(100_000) // bucket le=131072ns

	out := expose(t, r)
	wantLines := []string{
		"# HELP req_total Requests served.",
		"# TYPE req_total counter",
		"req_total 42",
		"# TYPE req_by_route_total counter",
		`req_by_route_total{route="/query"} 7`,
		`req_by_route_total{route="/insert"} 3`,
		"# TYPE in_flight gauge",
		"in_flight 5",
		"# TYPE uptime_seconds gauge",
		"uptime_seconds 12.5",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.000004096"} 0`,
		`latency_seconds_bucket{le="0.000008192"} 2`,
		`latency_seconds_bucket{le="0.000131072"} 3`,
		`latency_seconds_bucket{le="+Inf"} 3`,
		"latency_seconds_sum 0.00011",
		"latency_seconds_count 3",
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing line %q\n---\n%s", want, out)
		}
	}
	// Families must render in registration order.
	if strings.Index(out, "req_total") > strings.Index(out, "latency_seconds") {
		t.Error("families not in registration order")
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Errorf("golden exposition fails validation: %v", err)
	}
}

// TestExpositionLabelEscaping: quotes, backslashes and newlines in
// label values must be escaped and still validate.
func TestExpositionLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "Escapes.", "v", `a"b\c`+"\n").Inc()
	out := expose(t, r)
	want := `esc_total{v="a\"b\\c\n"} 1`
	if !strings.Contains(out, want+"\n") {
		t.Fatalf("exposition missing %q:\n%s", want, out)
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("escaped exposition fails validation: %v", err)
	}
}

// TestValidateExpositionRejects drives the validator over known-bad
// texts — the cases CI's smoke scrape must catch if the renderer ever
// regresses.
func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string // substring of the expected error
	}{
		{
			"sample without TYPE",
			"orphan_total 1\n",
			"without a preceding # TYPE",
		},
		{
			"duplicate series",
			"# TYPE a counter\na 1\na 2\n",
			"duplicate series",
		},
		{
			"duplicate TYPE",
			"# TYPE a counter\n# TYPE a counter\na 1\n",
			"second TYPE line",
		},
		{
			"unknown type",
			"# TYPE a widget\na 1\n",
			"unknown metric type",
		},
		{
			"bad metric name",
			"# TYPE a counter\n9a 1\n",
			"bad metric name",
		},
		{
			"negative counter",
			"# TYPE a counter\na -1\n",
			"negative value",
		},
		{
			"bad sample value",
			"# TYPE a counter\na one\n",
			"bad sample value",
		},
		{
			"unterminated label value",
			"# TYPE a counter\na{k=\"v} 1\n",
			"unterminated label value",
		},
		{
			"bad escape",
			"# TYPE a counter\na{k=\"\\t\"} 1\n",
			"bad escape",
		},
		{
			"missing comma",
			"# TYPE a counter\na{k=\"v\"j=\"w\"} 1\n",
			"missing comma",
		},
		{
			"histogram without +Inf",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
			"no le=\"+Inf\" bucket",
		},
		{
			"histogram +Inf != count",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n",
			"+Inf bucket 1 != count 2",
		},
		{
			"histogram buckets not cumulative",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
			"cumulative bucket decreased",
		},
		{
			"histogram le bounds not increasing",
			"# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
			"le bounds not increasing",
		},
		{
			"bare histogram sample",
			"# TYPE h histogram\nh 1\n",
			"bare sample",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := ValidateExposition(strings.NewReader(c.text))
			if err == nil {
				t.Fatalf("validator accepted bad exposition:\n%s", c.text)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestValidateExpositionAccepts: corner-case texts that are legal must
// pass — timestamps, free-form comments, NaN gauges, empty input.
func TestValidateExpositionAccepts(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"empty", ""},
		{"free-form comment", "# just a note\n# TYPE a counter\na 1\n"},
		{"timestamp", "# TYPE a counter\na 1 1700000000000\n"},
		{"NaN gauge", "# TYPE g gauge\ng NaN\n"},
		{"untyped", "# TYPE u untyped\nu 3.14\n"},
		{"summary passthrough", "# TYPE s summary\ns_sum 1\ns_count 2\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := ValidateExposition(strings.NewReader(c.text)); err != nil {
				t.Fatalf("validator rejected legal exposition: %v\n%s", err, c.text)
			}
		})
	}
}
