package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// contract is the part of BENCHMARK.json the A/A procedure and the tests
// read: the names, directions and bounds the benchmark promises.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// agreement is, per end-to-end metric, the share by which the median of one
// set of runs may be worse than the median of another set of the same code:
// the issue's bounds, a tenth for timings and a twentieth for the two
// amplifications, on every workload, and never more than BENCHMARK.json's.
// BENCHMARK.json's bounds are wider where single runs spread more than
// that, because the driver holds the quartile distance of single runs
// against them as well; see README.md.
var agreement = map[string]float64{
	"setup_s": 0.10, "ops_per_s": 0.10,
	"get_p50_us": 0.10, "mget_p50_us": 0.10, "scan_p50_us": 0.10, "put_p50_us": 0.07,
	"write_amp": 0.05, "space_amp": 0.05,
}

// runAA is the A/A procedure behind the bounds: two sets of n runs of the
// same code per workload, each run a fresh process, seeds 1..n in both
// sets, in alternating order A B B A A B …. For every end-to-end metric it
// prints both set medians and quartiles, the spread (quartile distance over
// median, the larger of the two sets) beside the bound from BENCHMARK.json,
// and how much worse the second median is than the first beside the
// agreement bound. It returns 1 when a spread exceeds its bound or the
// medians disagree by more than theirs.
func runAA(n int, only string, seconds int) int {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: the A/A procedure runs from the repository root:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	status := 0
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < 2*n; i++ {
			set := (i + 1) / 2 % 2 // A B B A A B B A …
			seed := len(sets[set]["setup_s"]) + 1
			values, err := runChild(exe, w.name, seed, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, seed, err)
				return 1
			}
			for name, v := range values {
				sets[set][name] = append(sets[set][name], v)
			}
			fmt.Fprintf(os.Stderr, "aa %s set %c seed %d done\n", w.name, 'A'+set, seed)
		}
		fmt.Printf("\nA/A %s: 2 sets of %d runs, seeds 1..%d, %d s\n", w.name, n, n, seconds)
		fmt.Printf("%-12s %12s %25s %12s %25s %8s %6s %8s %6s\n", "metric", "median A", "quartiles A", "median B", "quartiles B", "spread", "bound", "B worse", "agree")
		for _, m := range c.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			spread := math.Max((a3-a1)/ma, (b3-b1)/mb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if spread > m.Bound || worse > agreement[m.Name] {
				verdict = "  OUTSIDE"
				status = 1
			}
			fmt.Printf("%-12s %12.4f %12.4f-%-12.4f %12.4f %12.4f-%-12.4f %7.2f%% %5.0f%% %+7.2f%% %5.0f%%%s\n",
				m.Name, ma, a1, a3, mb, b1, b3, 100*spread, 100*m.Bound, 100*worse, 100*agreement[m.Name], verdict)
		}
	}
	return status
}

// runChild runs one untraced run in a fresh process and returns its metric
// values from the result line.
func runChild(exe, workload string, seed, seconds int) (map[string]float64, error) {
	out, err := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0").Output()
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run not correct")
	}
	values := map[string]float64{}
	for name, m := range res.Metrics {
		values[name] = m.Value
	}
	return values, nil
}
