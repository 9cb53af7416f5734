package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"vpga/internal/bench"
	"vpga/internal/cells"
)

// The sweep drivers fan their points out on SweepOptions.Parallel
// workers; their results must be byte-identical at any width.

func equivalenceArchs() []*cells.PLBArch {
	return []*cells.PLBArch{cells.GranularPLB(), cells.LUTPLB()}
}

func asJSON(t *testing.T, v any) []byte {
	t.Helper()
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// widthEquivalent runs sweep at Parallel 1 and 4 and fails if the two
// results differ by a byte.
func widthEquivalent[T any](t *testing.T, name string, sweep func(SweepOptions) (T, error), opts SweepOptions) {
	t.Helper()
	var enc [2][]byte
	for i, parallel := range []int{1, 4} {
		opts.Parallel = parallel
		got, err := sweep(opts)
		if err != nil {
			t.Fatal(err)
		}
		enc[i] = asJSON(t, got)
	}
	if !bytes.Equal(enc[0], enc[1]) {
		t.Errorf("%s(Parallel: 4) differs from %s(Parallel: 1)", name, name)
	}
}

func TestGranularitySweepEquivalence(t *testing.T) {
	ctx := context.Background()
	d := bench.ALU(8)
	widthEquivalent(t, "RunGranularitySweep", func(o SweepOptions) ([]SweepPoint, error) {
		return RunGranularitySweep(ctx, d, equivalenceArchs(), o)
	}, SweepOptions{Seed: 11})
}

func TestDomainExploreEquivalence(t *testing.T) {
	ctx := context.Background()
	domains := []bench.Design{bench.ALU(8), bench.FIR(4, 4)}
	widthEquivalent(t, "RunDomainExplore", func(o SweepOptions) ([]DomainResult, error) {
		return RunDomainExplore(ctx, domains, equivalenceArchs(), o)
	}, SweepOptions{Seed: 3})
}

func TestRoutingSweepEquivalence(t *testing.T) {
	ctx := context.Background()
	d := bench.ALU(8)
	widthEquivalent(t, "RunRoutingSweep", func(o SweepOptions) ([]RoutingPoint, error) {
		return RunRoutingSweep(ctx, d, cells.GranularPLB(), []int{4, 16}, o)
	}, SweepOptions{Seed: 3})
}
