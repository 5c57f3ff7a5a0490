package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads back.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readResults collects every *.result.json under dir as
// workload -> metric -> values, one value per run.
func readResults(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.result.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no *.result.json files", dir)
	}
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if out[rf.Workload] == nil {
			out[rf.Workload] = map[string][]float64{}
		}
		for name, m := range rf.Metrics {
			out[rf.Workload][name] = append(out[rf.Workload][name], m.Value)
		}
	}
	return out, nil
}

// verdict labels B against A for an end-to-end metric, by the bound
// BENCHMARK.json fixes: a spread wider than the bound on either side
// is unresolved unless every run of B beats every run of A.
func verdict(m specMetric, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case max(relSpread(a), relSpread(b)) > m.Bound:
		if allBetter(m, a, b) {
			return "improved"
		}
		return "unresolved"
	case worse > m.Bound:
		return "regressed"
	case -worse > m.Bound:
		return "improved"
	default:
		return "unchanged"
	}
}

// relSpread is the interquartile range as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

func allBetter(m specMetric, a, b []float64) bool {
	worstB, bestA := sorted(b), sorted(a)
	if m.Better == "higher" {
		return worstB[0] > bestA[len(bestA)-1]
	}
	return worstB[len(worstB)-1] < bestA[0]
}

// compareDirs prints, per workload and metric, each side's median and
// quartiles and — for the end-to-end metrics — the verdict.
func compareDirs(specPath, dirA, dirB string, w io.Writer) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	ra, err := readResults(dirA)
	if err != nil {
		return err
	}
	rb, err := readResults(dirB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tA q1..q3\tB median\tB q1..q3\tchange\tverdict\t")
	counts := map[string]int{}
	for _, wl := range spec.Workloads {
		for _, group := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			for _, m := range group {
				a, b := ra[wl.Name][m.Name], rb[wl.Name][m.Name]
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				label := "-" // per-layer metrics carry no bound
				if m.Bound > 0 {
					label = verdict(m, a, b)
					counts[label]++
				}
				qa1, qa3 := quartiles(a)
				qb1, qb3 := quartiles(b)
				ma, mb := median(a), median(b)
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g..%.6g\t%.6g\t%.6g..%.6g\t%+.1f%%\t%s\t\n",
					wl.Name, m.Name, ma, qa1, qa3, mb, qb1, qb3, 100*(mb-ma)/ma, label)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	var parts []string
	for _, l := range []string{"improved", "unchanged", "regressed", "unresolved"} {
		parts = append(parts, fmt.Sprintf("%s=%d", l, counts[l]))
	}
	_, err = fmt.Fprintf(w, "end-to-end verdicts: %s\n", strings.Join(parts, " "))
	return err
}
