package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// runAll runs every workload untraced and then traced, each in its own
// process so memory and set-up figures stay separate, prints all their
// lines plus the tracing overhead (traced end-to-end figure minus the
// untraced one), and returns the exit code: non-zero if any run failed
// or any output check failed.
func runAll(seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	code := 0
	for _, name := range names {
		var e2e [2]map[string]jsonMetric
		for trace := 0; trace <= 1; trace++ {
			args := []string{"--workload", name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace)}
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			err := cmd.Run()
			fmt.Printf("== %s trace=%d\n%s", name, trace, out.String())
			if err != nil {
				fmt.Printf("== %s trace=%d FAILED: %v\n", name, trace, err)
				code = 1
				continue
			}
			e2e[trace] = contractLine(out.Bytes())
		}
		if e2e[0] == nil || e2e[1] == nil {
			continue
		}
		keys := make([]string, 0, len(e2e[0]))
		for k := range e2e[0] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			u, t := e2e[0][k], e2e[1][k]
			fmt.Printf("overhead %-14s %-18s traced %12.6g untraced %12.6g diff %+12.6g %s\n",
				name, k, t.Value, u.Value, t.Value-u.Value, u.Unit)
		}
	}
	return code
}

// contractLine extracts the end-to-end figures a run printed.
func contractLine(out []byte) map[string]jsonMetric {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "contract-e2e "); ok {
			var m map[string]jsonMetric
			if json.Unmarshal([]byte(rest), &m) == nil {
				return m
			}
		}
	}
	return nil
}
