package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the compare step reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// setLine is one line of a result set: a run's result line tagged with
// its workload and seed (sets.sh writes them).
type setLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// compare reads two result sets, A (the base) and B, and reports for each
// workload and end-to-end metric each side's median and quartiles and a
// verdict: "within bound" when B's median is no worse than A's by more
// than the metric's bound, "worse" when it is, and "unresolved" when
// either side's own spread (interquartile range over median) is wider than
// the bound — unless every B run beats every A run, which reads "better".
// It exits non-zero when any verdict is "worse" or a run failed its checks.
func compare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: compare A.jsonl B.jsonl (run from the directory holding BENCHMARK.json)")
	}
	var spec benchSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	a, err := readSet(args[0])
	if err != nil {
		return err
	}
	b, err := readSet(args[1])
	if err != nil {
		return err
	}
	bad := false
	workloads := map[string]bool{}
	for _, set := range []map[string][]result{a, b} {
		for w, runs := range set {
			workloads[w] = true
			for _, r := range runs {
				if !r.Correct || r.Failed > 0 {
					fmt.Printf("%s: a run failed %d of %d operations\n", w, r.Failed, r.Attempted)
					bad = true
				}
			}
		}
	}
	fmt.Printf("%-12s %-15s %-6s %5s %38s %38s  %s\n", "workload", "metric", "unit", "bound",
		"A median [q1, q3] spread", "B median [q1, q3] spread", "verdict")
	for _, w := range sortedKeys(workloads) {
		for _, m := range spec.EndToEnd {
			va, vb := values(a[w], m.Name), values(b[w], m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			verdict := judge(va, vb, m.Better, m.Bound)
			if verdict == "worse" {
				bad = true
			}
			fmt.Printf("%-12s %-15s %-6s %5.2f %38s %38s  %s\n", w, m.Name, m.Unit, m.Bound, describe(va), describe(vb), verdict)
		}
	}
	if bad {
		return errors.New("B is worse than A beyond a bound, or a run failed its checks")
	}
	return nil
}

// judge returns the verdict for one metric: B against the base A.
func judge(a, b []float64, better string, bound float64) string {
	if len(a) < 2 || len(b) < 2 {
		return "unresolved"
	}
	ma, mb := quartiles(a)[1], quartiles(b)[1]
	worse := mb > ma*(1+bound)
	if better == "higher" {
		worse = mb < ma*(1-bound)
	}
	if spread(a) > bound || spread(b) > bound {
		if allBetter(a, b, better) {
			return "better"
		}
		return "unresolved"
	}
	if worse {
		return "worse"
	}
	return "within bound"
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

func describe(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] %.3f n=%d", q[1], q[0], q[2], spread(xs), len(xs))
}

// quartiles returns the first quartile, median and third quartile of xs
// with the method of Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method), so the spreads read the same as that tool's.
func quartiles(xs []float64) [3]float64 {
	d := sorted(xs)
	ld := len(d)
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

func sorted(xs []float64) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d
}

func values(runs []result, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// readSet loads a result set, grouping the runs by workload.
func readSet(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var l setLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		set[l.Workload] = append(set[l.Workload], l.Result)
	}
	return set, sc.Err()
}
