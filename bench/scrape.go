package main

// Counter scraping: the server's own /statsz and /metrics, read
// immediately before and after the measured window, give the count-type
// layer metrics as differences.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"rdfcube/internal/server"
)

// counters is one scrape of a running server.
type counters struct {
	stats server.StatsResponse
	// series maps an exposition line's name{labels} to its value.
	series map[string]float64
}

func scrape(c *http.Client, base string) (*counters, error) {
	out := &counters{series: map[string]float64{}}
	resp, err := c.Get(base + "/statsz")
	if err != nil {
		return nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&out.stats)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("/statsz: %w", err)
	}
	resp, err = c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return out, parseExposition(resp.Body, out.series)
}

// parseExposition reads Prometheus text lines "name{labels} value".
func parseExposition(r io.Reader, into map[string]float64) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		into[line[:i]] = v
	}
	return sc.Err()
}

// delta returns after − before for one series.
func delta(before, after *counters, series string) float64 {
	return after.series[series] - before.series[series]
}

// ratio is num/den, or 0 when the layer did no such work.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
