package main

import (
	"bytes"
	"strings"
	"testing"
)

// canned is go test -bench output for two benchmarks over four runs, with
// a custom metric, the header lines and the PASS trailer.
const canned = `goos: linux
goarch: amd64
pkg: repro
cpu: Test CPU @ 2.00GHz
BenchmarkPool/pages=4/LRU-2     	     100	      4000 ns/op	         0.250 hit-ratio	     512 B/op	       5 allocs/op
BenchmarkPool/pages=4/LRU-2     	     100	      1000 ns/op	         0.500 hit-ratio	     512 B/op	       5 allocs/op
BenchmarkSelect-2               	 1000000	      1.5 ns/op
BenchmarkPool/pages=4/LRU-2     	     100	      3000 ns/op	         0.250 hit-ratio	     512 B/op	       5 allocs/op
BenchmarkPool/pages=4/LRU-2     	     100	      2000 ns/op	         0.750 hit-ratio	     512 B/op	       5 allocs/op
BenchmarkSelect-2               	 1000000	      2.5 ns/op
BenchmarkSelect-2               	 1000000	      0.5 ns/op
PASS
ok  	repro	12.345s
`

func TestSummarizeMedianAndQuartiles(t *testing.T) {
	var out bytes.Buffer
	if err := summarize(strings.NewReader(canned), &out); err != nil {
		t.Fatal(err)
	}
	// Four runs of ns/op {1000 2000 3000 4000}: the median is the mean of
	// the middle pair; q1 and q3 are the 1st and 3rd values by nearest rank.
	// Three runs {0.5 1.5 2.5}: the median is the middle value, and the
	// quartiles are the 1st and 3rd values.
	want := `goos: linux
goarch: amd64
pkg: repro
cpu: Test CPU @ 2.00GHz
benchmark         unit       median  [q1–q3]      runs
Pool/pages=4/LRU  ns/op      2500    [1000–3000]  4
Pool/pages=4/LRU  hit-ratio  0.375   [0.25–0.5]   4
Pool/pages=4/LRU  B/op       512     [512–512]    4
Pool/pages=4/LRU  allocs/op  5       [5–5]        4
Select            ns/op      1.5     [0.5–2.5]    3
`
	if out.String() != want {
		t.Fatalf("summary:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestSummarizeRejectsFailuresAndEmptyInput(t *testing.T) {
	for name, in := range map[string]string{
		"failed benchmark": canned + "--- FAIL: BenchmarkSelect\nFAIL\trepro\t1.0s\n",
		"no results":       "goos: linux\nPASS\nok  \trepro\t0.1s\n",
		"bare name only":   "BenchmarkSelect-2\nPASS\n",
	} {
		var out bytes.Buffer
		if err := summarize(strings.NewReader(in), &out); err == nil {
			t.Errorf("%s: summarize succeeded:\n%s", name, out.String())
		}
	}
}
