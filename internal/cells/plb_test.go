package cells

import (
	"math/rand"
	"sync"
	"testing"
)

// legalityArchs covers the paper's two PLBs and CustomPLB shapes from
// sparse to slot-rich, including one without a flip-flop.
func legalityArchs() []*PLBArch {
	return []*PLBArch{
		LUTPLB(),
		GranularPLB(),
		CustomPLB("c-min", 1, 0, 0, 0, 0),
		CustomPLB("c-mux", 2, 1, 1, 0, 1),
		CustomPLB("c-lut", 0, 0, 2, 2, 2),
		CustomPLB("c-rich", 3, 2, 2, 1, 3),
	}
}

// randomInstances draws a config multiset of 0 to len(Slots)+3
// instances from every config the architecture knows, hostable or not.
func randomInstances(rng *rand.Rand, a *PLBArch, pool []*Config) []*Config {
	out := make([]*Config, rng.Intn(len(a.Slots)+4))
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

func configPool(a *PLBArch) []*Config {
	var pool []*Config
	for _, c := range buildConfigs(a.Library()) {
		pool = append(pool, a.Config(c.Name))
	}
	return pool
}

// TestCanPackMemoMatchesExact checks the memoized CanPack against the
// exact backtracking matcher on random multisets, in drawn order and
// shuffled, so every signature is queried through differently grouped
// instances after its first answer is cached.
func TestCanPackMemoMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, a := range legalityArchs() {
		pool := configPool(a)
		fits := 0
		for trial := 0; trial < 1000; trial++ {
			insts := randomInstances(rng, a, pool)
			want := a.canPackExact(insts)
			if got := a.CanPack(insts); got != want {
				t.Fatalf("%s: CanPack(%v) = %v, exact matcher says %v", a.Name, names(insts), got, want)
			}
			rng.Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
			if got := a.CanPack(insts); got != want {
				t.Fatalf("%s: shuffled CanPack(%v) = %v, exact matcher says %v", a.Name, names(insts), got, want)
			}
			if want {
				fits++
			}
		}
		if !a.CanPack(nil) {
			t.Errorf("%s: the empty set must fit", a.Name)
		}
		if fits == 0 || fits == 1000 {
			t.Errorf("%s: %d of 1000 draws fit; the draw does not exercise both answers", a.Name, fits)
		}
	}
}

// TestCanPackConcurrentCallers shares one architecture across
// goroutines, as matrix cells do, so the memo runs under the race
// detector while it fills.
func TestCanPackConcurrentCallers(t *testing.T) {
	for _, a := range []*PLBArch{GranularPLB(), CustomPLB("c-mux", 2, 1, 1, 0, 1)} {
		pool := configPool(a)
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for trial := 0; trial < 300; trial++ {
					insts := randomInstances(rng, a, pool)
					if a.CanPack(insts) != a.canPackExact(insts) {
						errs <- a.Name + ": concurrent CanPack disagrees on " + names(insts)
						return
					}
				}
			}(int64(w))
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

func names(insts []*Config) string {
	s := "["
	for i, c := range insts {
		if i > 0 {
			s += " "
		}
		s += c.Name
	}
	return s + "]"
}
