// Command gisbench summarizes repeated `go test -bench` output: for every
// benchmark and unit it prints the median and the quartiles over the runs.
// `make experiments` feeds it ten runs of the root benchmarks, and
// EXPERIMENTS.md's B-series tables are read off its summary. The end-to-end
// interaction benchmark is a separate program: see bench/README.md.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count 10 . > bench.txt
//	gisbench < bench.txt
//
// It exits non-zero when the input holds a FAIL line or no benchmark result.
package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

func main() {
	if len(os.Args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: gisbench < go-test-bench-output")
		os.Exit(2)
	}
	if err := summarize(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gisbench:", err)
		os.Exit(1)
	}
}

// procsSuffix is the -GOMAXPROCS suffix go test appends to benchmark names.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// series holds one benchmark's values per unit, units in first-seen order.
type series struct {
	name   string
	units  []string
	values map[string][]float64
}

// summarize reads go test -bench output from r and writes, for each
// benchmark and unit in input order, the median [q1–q3] over its runs. The
// goos, goarch, pkg and cpu header lines are copied through.
func summarize(r io.Reader, w io.Writer) error {
	var (
		order  []*series
		byName = map[string]*series{}
		failed []string
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "FAIL") || strings.HasPrefix(line, "--- FAIL"):
			failed = append(failed, line)
		case strings.HasPrefix(line, "goos:") || strings.HasPrefix(line, "goarch:") ||
			strings.HasPrefix(line, "pkg:") || strings.HasPrefix(line, "cpu:"):
			if len(order) == 0 {
				fmt.Fprintln(w, line)
			}
		case strings.HasPrefix(line, "Benchmark"):
			name, vals, ok := parseResult(line)
			if !ok {
				continue
			}
			s := byName[name]
			if s == nil {
				s = &series{name: name, values: map[string][]float64{}}
				byName[name] = s
				order = append(order, s)
			}
			for _, v := range vals {
				if _, seen := s.values[v.unit]; !seen {
					s.units = append(s.units, v.unit)
				}
				s.values[v.unit] = append(s.values[v.unit], v.value)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read: %w", err)
	}
	if len(failed) > 0 {
		return fmt.Errorf("input reports a failure: %s", failed[0])
	}
	if len(order) == 0 {
		return errors.New("no benchmark results in input")
	}
	t := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(t, "benchmark\tunit\tmedian\t[q1–q3]\truns")
	for _, s := range order {
		for _, u := range s.units {
			xs := s.values[u]
			sort.Float64s(xs)
			fmt.Fprintf(t, "%s\t%s\t%s\t[%s–%s]\t%d\n", s.name, u,
				format(median(xs)), format(nearestRank(xs, 0.25)), format(nearestRank(xs, 0.75)), len(xs))
		}
	}
	return t.Flush()
}

type measurement struct {
	value float64
	unit  string
}

// parseResult splits a result line, "BenchmarkX-2  <iters>  <v> <unit> ...",
// into the name without its GOMAXPROCS suffix and its (value, unit) pairs.
// A Benchmark line that is not a result, such as a bare name printed
// before a sub-benchmark's log output, reports ok false.
func parseResult(line string) (name string, vals []measurement, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return "", nil, false
	}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return "", nil, false
	}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", nil, false
		}
		vals = append(vals, measurement{v, f[i+1]})
	}
	name = procsSuffix.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), "")
	return name, vals, true
}

// median is the middle value of ascending xs, or the mean of the middle
// pair for an even count (bench/stats.go's rule).
func median(xs []float64) float64 {
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// nearestRank is the q-quantile of ascending xs by nearest rank.
func nearestRank(xs []float64, q float64) float64 {
	idx := int(math.Ceil(q*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return xs[idx]
}

// format prints four significant digits, and whole numbers from 1000 up.
func format(v float64) string {
	if math.Abs(v) >= 1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
