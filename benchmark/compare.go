package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// runSet is a file -out wrote: every run of one commit.
type runSet struct {
	Env  string `json:"env"`
	Runs []struct {
		Workload string `json:"workload"`
		Trace    int    `json:"trace"`
		report
	} `json:"runs"`
}

func loadRunSet(path string) (*runSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects a metric's value from every untraced run of a workload,
// and the workload's failed share.
func (s *runSet) values(workload, metric string) (xs []float64, failedShare float64) {
	attempted, failed := 0, 0
	for _, r := range s.Runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		attempted += r.Attempted
		failed += r.Failed
		if m, ok := r.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	if attempted > 0 {
		failedShare = float64(failed) / float64(attempted)
	}
	return xs, failedShare
}

// compareFiles prints one row per (workload, end-to-end metric): b's median
// against a's, judged by the metric's direction and bound. A bound of 0 means
// exact. A metric whose own run-to-run spread in either file exceeds its bound
// is unresolved, not unchanged. It returns false on a regression or a higher
// failed share.
func compareFiles(spec *benchSpec, pathA, pathB string) (bool, error) {
	a, err := loadRunSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRunSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Printf("a: %s\nb: %s\n", a.Env, b.Env)
	fmt.Printf("%-12s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	ok := true
	for _, w := range spec.Workloads {
		var shareA, shareB float64
		for _, m := range spec.EndToEnd {
			xa, sa := a.values(w.Name, m.Name)
			xb, sb := b.values(w.Name, m.Name)
			shareA, shareB = sa, sb
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-12s %-18s missing from a file\n", w.Name, m.Name)
				ok = false
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma // share of a's median by which b is worse
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			spreadA, okA := quartileSpread(xa)
			spreadB, okB := quartileSpread(xb)
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				ok = false
			case (okA && spreadA > m.Bound) || (okB && spreadB > m.Bound):
				verdict = fmt.Sprintf("unresolved (spread a %.1f%% b %.1f%%)", spreadA*100, spreadB*100)
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-12s %-18s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				w.Name, m.Name, ma, mb, (mb-ma)/ma*100, m.Bound*100, verdict)
		}
		if shareB > shareA {
			fmt.Printf("%-12s failed share rose from %.4f to %.4f: REGRESSION\n", w.Name, shareA, shareB)
			ok = false
		}
	}
	return ok, nil
}
