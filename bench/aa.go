package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// contract is the part of BENCHMARK.json the A/A run needs: which
// metrics are end to end, which way is better, and the bound.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA is the acceptance check the benchmark must pass before anyone
// compares two commits with it: every workload is run n times in each of
// two sets of the same code, alternating A, B, A, B, ..., each run a
// fresh process with its own seed. For every end-to-end metric it prints
// both sets' medians and quartiles, the spread (Q3−Q1)/median of each,
// and how much worse B's median is than A's, against the metric's bound.
func runAA(n int, cfg config, w io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("A/A mode runs from the repository root: %w", err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bad := 0
	for _, sp := range specs {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			args := []string{"-workload", sp.name, "-seed", strconv.Itoa(1000 + i), "-seconds", strconv.Itoa(cfg.seconds)}
			if cfg.quick {
				args = append(args, "-quick")
			}
			vals, err := child(self, args)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", sp.name, i, err)
			}
			for name, v := range vals {
				sets[i%2][name] = append(sets[i%2][name], v)
			}
		}
		fmt.Fprintf(w, "%s (%d runs per set)\n", sp.name, n)
		fmt.Fprintf(w, "  %-16s %12s %12s %12s %8s | %12s %12s %12s %8s | %8s %6s\n",
			"metric", "A q1", "A median", "A q3", "spread", "B q1", "B median", "B q3", "spread", "B worse", "bound")
		for _, m := range c.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][m.Name])
			b1, b2, b3 := quartiles(sets[1][m.Name])
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := (a3-a1)/a2, (b3-b1)/b2
			verdict := ""
			if worse > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				verdict = "  MISSES BOUND"
				bad++
			}
			fmt.Fprintf(w, "  %-16s %12.6g %12.6g %12.6g %8.4f | %12.6g %12.6g %12.6g %8.4f | %+8.4f %6.3f%s\n",
				m.Name, a1, a2, a3, sa, b1, b2, b3, sb, worse, m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) miss their bound: fix the measurement, do not widen the bound", bad)
	}
	return nil
}

// child runs one benchmark process to completion and returns the metric
// values from the JSON object on its last line.
func child(self string, args []string) (map[string]float64, error) {
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var line struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, fmt.Errorf("last line is not the result object: %w", err)
	}
	vals := make(map[string]float64, len(line.Metrics))
	for name, m := range line.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}
