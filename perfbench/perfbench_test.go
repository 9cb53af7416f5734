package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestMetricTablesMatchBenchmarkJSON keeps the declared metrics, units
// and directions identical to the ones BENCHMARK.json publishes.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", got, want)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end in BENCHMARK.json\n%v\ndiffers from the harness\n%v", spec.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(spec.PerLayer, layerMetrics) {
		t.Errorf("per_layer in BENCHMARK.json\n%v\ndiffers from the harness\n%v", spec.PerLayer, layerMetrics)
	}
}

// TestToyWorkloads runs every workload at test scale, untraced and
// traced, and checks that it passes its own correctness pass and
// emits every named metric with its unit (end-to-end ones non-zero).
func TestToyWorkloads(t *testing.T) {
	for name, wl := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 3, seconds: 0.2, toy: true, workDir: t.TempDir()}
			o, err := wl(context.Background(), cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if o.attempted < 1 || o.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", name, traced, o.attempted, o.failed, o.problems)
			}
			ms, defs := o.e2e, endToEndMetrics
			if traced {
				ms, defs = o.layer, layerMetrics
			}
			if len(ms) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(ms), len(defs))
			}
			for _, d := range defs {
				m, ok := ms[d.Name]
				switch {
				case !ok || m.Unit != d.Unit:
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, d.Name, m, d.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestMixSequenceSeeded checks that one seed replays the same serve-mix
// op sequence, that another seed gives a different one, and that the
// stream carries every op kind.
func TestMixSequenceSeeded(t *testing.T) {
	designs := mixDesigns(false)
	a, b := mixSequence(11, 400, designs), mixSequence(11, 400, designs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 11 produced two different op sequences")
	}
	if reflect.DeepEqual(a, mixSequence(12, 400, designs)) {
		t.Fatal("seeds 11 and 12 produced the same op sequence")
	}
	kinds := map[string]int{}
	for _, op := range a {
		kinds[op.Kind]++
	}
	for _, k := range []string{"cold", "retarget", "repeat"} {
		if kinds[k] == 0 {
			t.Errorf("no %s ops in %v", k, kinds)
		}
	}
}

// TestQuantile checks the Harrell–Davis estimator against values it
// must reproduce: the centre of a symmetric sample, a constant sample,
// and monotonicity in q.
func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if got := quantile([]float64{7, 7, 7}, 0.9); math.Abs(got-7) > 1e-9 {
		t.Errorf("p90 of a constant sample = %v, want 7", got)
	}
	if lo, hi := quantile(xs, 0.5), quantile(xs, 0.9); !(lo < hi && hi < 5) {
		t.Errorf("p50 %v, p90 %v: want p50 < p90 < max", lo, hi)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

// TestGitRev reads loose, packed and detached HEADs, and reports a
// directory without .git as unknown.
func TestGitRev(t *testing.T) {
	write := func(root, rel, body string) {
		p := filepath.Join(root, ".git", filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loose, packed, detached := t.TempDir(), t.TempDir(), t.TempDir()
	write(loose, "HEAD", "ref: refs/heads/main\n")
	write(loose, "refs/heads/main", "aaa\n")
	write(packed, "HEAD", "ref: refs/heads/main\n")
	write(packed, "packed-refs", "# pack-refs with: peeled\nbbb refs/heads/main\n")
	write(detached, "HEAD", "ccc\n")
	for dir, want := range map[string]string{loose: "aaa", packed: "bbb", detached: "ccc", t.TempDir(): "unknown"} {
		if got := gitRev(dir); got != want {
			t.Errorf("gitRev(%s) = %q, want %q", dir, got, want)
		}
	}
}
