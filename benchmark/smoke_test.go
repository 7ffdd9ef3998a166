package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if err := mapCalibrationTable(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// smokeSize shrinks every workload to a few small campaigns.
var smokeSize = sizing{
	trialScale:   0.01,
	minCampaigns: 4,
	setups:       1,
	workerPoll:   10 * time.Millisecond,
	hardLimit:    10 * time.Second,
}

// TestSmoke runs every workload untraced and traced at tiny sizes: each
// must pass its checks and print exactly the metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	registerTraced()
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	if !reflect.DeepEqual(bench.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark prints %v", bench.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bench.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark prints %v", bench.PerLayer, perLayer)
	}

	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{
				workload: wl.name,
				seed:     3,
				trace:    trace,
				traceDir: t.TempDir(),
				scratch:  t.TempDir(),
				size:     smokeSize,
			}
			r := newReport()
			wl.run(context.Background(), cfg, r)
			if !trace {
				r.set("peak_rss_mb", 1, 1) // main reads it from /proc
			}
			var out bytes.Buffer
			w := bufio.NewWriter(&out)
			ok := r.finish(w, trace)
			w.Flush()
			if !ok {
				t.Errorf("%s trace=%v failed:\n%s", wl.name, trace, out.String())
				continue
			}
			t.Logf("%s trace=%v:\n%s", wl.name, trace, out.String())
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", wl.name, err)
			}
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			var got, wantNames []string
			for name, m := range res.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			for _, d := range want {
				wantNames = append(wantNames, d.Name+" "+d.Unit)
			}
			sort.Strings(got)
			sort.Strings(wantNames)
			if !reflect.DeepEqual(got, wantNames) {
				t.Errorf("%s trace=%v printed metrics %v, want %v", wl.name, trace, got, wantNames)
			}
			if trace {
				entries, _ := os.ReadDir(cfg.traceDir)
				if len(entries) != 1 {
					t.Errorf("%s: %d trace files, want 1", wl.name, len(entries))
				}
			}
		}
	}
}
