package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict of one (workload, metric) row.
const (
	vOK         = "ok"
	vWorse      = "worse"
	vUnresolved = "unresolved"
)

// judge compares metric d of report b against baseline a. Simulated metrics
// are deterministic, so any difference at one seed is a change of behaviour
// and counts as worse. A host metric is worse when its median moved the
// wrong way by more than the bound; when either side's spread between
// repetitions is wider than the bound the two cannot be told apart and the
// row is unresolved, unless every repetition of b beats every one of a.
func judge(d metricDef, a, b metricValue) string {
	if d.Clock == simClock {
		if a.Value == b.Value {
			return vOK
		}
		return vWorse
	}
	sign := 1.0 // > 0: larger is worse
	if d.Better == higher {
		sign = -1
	}
	if len(a.Reps) > 0 && len(b.Reps) > 0 {
		allBetter := true
		for _, x := range a.Reps {
			for _, y := range b.Reps {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return vOK
		}
	}
	if max(spread(a.Reps), spread(b.Reps)) > d.Bound {
		return vUnresolved
	}
	if a.Value != 0 && sign*(b.Value-a.Value)/a.Value > d.Bound {
		return vWorse
	}
	return vOK
}

// compareReports prints one row per (workload, end-to-end metric) present
// in both reports and returns how many are worse.
func compareReports(w io.Writer, a, b *report) int {
	worse := 0
	fmt.Fprintf(w, "%-12s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			for _, d := range endToEnd {
				va, oka := wa.Metrics[d.Name]
				vb, okb := wb.Metrics[d.Name]
				if !oka || !okb {
					continue
				}
				v := judge(d, va, vb)
				if v == vWorse {
					worse++
				}
				change := 0.0
				if va.Value != 0 {
					change = 100 * (vb.Value - va.Value) / va.Value
				}
				bound := "exact" // a simulated metric may not move at all at one seed
				if d.Clock == hostClock {
					bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				}
				fmt.Fprintf(w, "%-12s %-18s %14.6g %14.6g %+7.1f%% %6s  %s\n",
					wa.Name, d.Name, va.Value, vb.Value, change, bound, v)
			}
		}
	}
	return worse
}

func readReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles is -compare: non-nil when any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	if a.Seed != b.Seed {
		return fmt.Errorf("reports use seeds %d and %d: simulated metrics only compare at one seed", a.Seed, b.Seed)
	}
	if n := compareReports(w, a, b); n > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", n)
	}
	return nil
}
