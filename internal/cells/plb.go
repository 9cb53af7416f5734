package cells

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"vpga/internal/logic"
)

// Slot is one component position inside a PLB.
type Slot struct {
	Component string // component cell name
	Serves    []Role // roles this slot can absorb
}

func (s Slot) serves(r Role) bool {
	for _, x := range s.Serves {
		if x == r {
			return true
		}
	}
	return false
}

// PLBArch describes one patternable logic block architecture.
type PLBArch struct {
	Name  string
	Slots []Slot
	// Area is the full PLB tile area (NAND2 equivalents), including the
	// local via-configurable interconnect and polarity buffers; it is
	// larger than the sum of component areas.
	Area float64
	// CombArea is the combinational portion of the tile.
	CombArea float64
	// Configs the architecture's packer recognizes, in preference
	// order (fastest/smallest first for a matched function).
	Configs []*Config

	lib       *Library
	configIdx map[string]*Config

	legalOnce sync.Once
	legal     *legality
}

// Library returns the shared component library.
func (a *PLBArch) Library() *Library { return a.lib }

// Config returns the named configuration or nil.
func (a *PLBArch) Config(name string) *Config { return a.configIdx[name] }

// LUTPLB returns the LUT-based heterogeneous PLB of Figure 1: one
// 3-LUT, two ND3WI gates and a D flip-flop.
func LUTPLB() *PLBArch {
	lib := ComponentLibrary()
	cfgs := buildConfigs(lib)
	byName := indexConfigs(cfgs)
	a := &PLBArch{
		Name: "lut-plb",
		Slots: []Slot{
			{Component: "LUT3", Serves: []Role{RoleLUT, RoleNand, RoleNd2, RoleMux, RoleXoa, RoleSimple2}},
			{Component: "ND3WI", Serves: []Role{RoleNand, RoleNd2, RoleSimple2}},
			{Component: "ND3WI", Serves: []Role{RoleNand, RoleNd2, RoleSimple2}},
			{Component: "DFF", Serves: []Role{RoleDFF}},
			{Component: "BUF", Serves: []Role{RoleBuf}},
			{Component: "BUF", Serves: []Role{RoleBuf}},
			{Component: "BUF", Serves: []Role{RoleBuf}},
			{Component: "BUF", Serves: []Role{RoleBuf}},
		},
		// Calibration (see DESIGN.md §5): combinational area 8.5, tile
		// area 14.0 with the flip-flop and local interconnect overhead.
		Area:     14.0,
		CombArea: 8.5,
		Configs:  []*Config{byName["ND2"], byName["ND3"], byName["LUT"], byName["FF"]},
		lib:      lib, configIdx: byName,
	}
	return a
}

// GranularPLB returns the granular heterogeneous PLB of Figure 4: two
// 2:1 MUXes, the XOA MUX, one ND3WI gate and a D flip-flop, with
// programmable buffers providing both polarities of every input.
func GranularPLB() *PLBArch {
	lib := ComponentLibrary()
	cfgs := buildConfigs(lib)
	byName := indexConfigs(cfgs)
	a := &PLBArch{
		Name: "granular-plb",
		Slots: []Slot{
			{Component: "MUX2", Serves: []Role{RoleMux, RoleXoa, RoleSimple2}},
			{Component: "MUX2", Serves: []Role{RoleMux, RoleXoa, RoleSimple2}},
			// The XOA also functions as a ND2WI element (Sec. 2.3).
			{Component: "XOA", Serves: []Role{RoleMux, RoleXoa, RoleNd2, RoleSimple2}},
			{Component: "ND3WI", Serves: []Role{RoleNand, RoleNd2, RoleSimple2}},
			{Component: "DFF", Serves: []Role{RoleDFF}},
			{Component: "BUF", Serves: []Role{RoleBuf}},
			{Component: "BUF", Serves: []Role{RoleBuf}},
			{Component: "BUF", Serves: []Role{RoleBuf}},
			{Component: "BUF", Serves: []Role{RoleBuf}},
		},
		// Calibration: +26.6% combinational area and 1.20× tile area
		// versus the LUT-based PLB (Sec. 3.2).
		Area:     16.8,
		CombArea: 10.76,
		Configs: []*Config{byName["ND2"], byName["ND3"], byName["MX"], byName["NDMX"],
			byName["XOAMX"], byName["XOANDMX"], byName["FA"], byName["FF"]},
		lib: lib, configIdx: byName,
	}
	return a
}

// CustomPLB builds a parameterized PLB for the granularity-sweep
// ablation (E8): nMux general MUXes, nXoa XOA MUXes, nNand ND3WI gates,
// nLut 3-LUTs and nFF flip-flops. Tile area follows a simple
// via-interconnect model: 1.30× the summed component area plus 0.35
// per component pin (each pin needs a column of potential via sites).
func CustomPLB(name string, nMux, nXoa, nNand, nLut, nFF int) *PLBArch {
	lib := ComponentLibrary()
	cfgs := buildConfigs(lib)
	byName := indexConfigs(cfgs)
	a := &PLBArch{Name: name, lib: lib, configIdx: byName}
	addSlots := func(n int, comp string, serves ...Role) {
		for i := 0; i < n; i++ {
			a.Slots = append(a.Slots, Slot{Component: comp, Serves: serves})
		}
	}
	addSlots(nMux, "MUX2", RoleMux, RoleXoa, RoleSimple2)
	addSlots(nXoa, "XOA", RoleMux, RoleXoa, RoleNd2, RoleSimple2)
	addSlots(nNand, "ND3WI", RoleNand, RoleNd2, RoleSimple2)
	addSlots(nLut, "LUT3", RoleLUT, RoleNand, RoleNd2, RoleMux, RoleXoa, RoleSimple2)
	addSlots(nFF, "DFF", RoleDFF)
	addSlots(4, "BUF", RoleBuf)
	comb, pins := 0.0, 0
	for _, s := range a.Slots {
		c := lib.Cell(s.Component)
		if !c.Seq {
			comb += c.Area
		}
		pins += c.MaxInputs + 1
	}
	a.CombArea = 1.30*comb + 0.35*float64(pins)
	seq := float64(nFF) * lib.Cell("DFF").Area
	a.Area = a.CombArea + seq + 0.10*(a.CombArea+seq)
	a.Configs = []*Config{byName["ND2"], byName["ND3"], byName["MX"], byName["NDMX"],
		byName["XOAMX"], byName["XOANDMX"], byName["LUT"], byName["FA"], byName["FF"]}
	return a
}

func indexConfigs(cfgs []*Config) map[string]*Config {
	m := map[string]*Config{}
	for _, c := range cfgs {
		m[c.Name] = c
	}
	return m
}

// hasRoleCapacity reports whether the architecture has any slot serving r.
func (a *PLBArch) hasRoleCapacity(r Role) bool {
	for _, s := range a.Slots {
		if s.serves(r) {
			return true
		}
	}
	return false
}

// usableConfigs returns the architecture's configs whose role demands
// the slot set can satisfy in isolation.
func (a *PLBArch) usableConfigs() []*Config {
	var out []*Config
	for _, c := range a.Configs {
		if a.CanPack([]*Config{c}) {
			out = append(out, c)
		}
	}
	return out
}

// BestConfig returns the preferred configuration implementing fn:
// the one minimizing (Intrinsic, Area) among configurations the
// architecture can actually host. It returns nil if no configuration
// implements fn.
func (a *PLBArch) BestConfig(fn logic.TT) *Config {
	var best *Config
	for _, c := range a.usableConfigs() {
		if c.Name == "FF" || c.Outputs > 1 || !c.Implements(fn) {
			continue
		}
		if best == nil || c.Intrinsic < best.Intrinsic ||
			(c.Intrinsic == best.Intrinsic && c.Area < best.Area) {
			best = c
		}
	}
	return best
}

// ConfigsFor returns every hostable configuration implementing fn, in
// preference order (fastest first, then smallest).
func (a *PLBArch) ConfigsFor(fn logic.TT) []*Config {
	var out []*Config
	for _, c := range a.usableConfigs() {
		if c.Name != "FF" && c.Outputs == 1 && c.Implements(fn) {
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Intrinsic != out[j].Intrinsic {
			return out[i].Intrinsic < out[j].Intrinsic
		}
		return out[i].Area < out[j].Area
	})
	return out
}

// CanPack reports whether one PLB can host all the given configuration
// instances simultaneously: every required role must be matched to a
// distinct slot that serves it. The answer depends only on the
// multiset of roles demanded, so it is memoized per architecture by a
// role-count signature; a miss runs the exact matcher. Safe for
// concurrent use.
func (a *PLBArch) CanPack(instances []*Config) bool {
	l := a.legality()
	sig, ok := l.signature(instances)
	if !ok {
		return false
	}
	if !l.memoized {
		return a.canPackExact(instances)
	}
	l.mu.RLock()
	fits, hit := l.memo[sig]
	l.mu.RUnlock()
	if hit {
		return fits
	}
	fits = a.canPackExact(instances)
	l.mu.Lock()
	l.memo[sig] = fits
	l.mu.Unlock()
	return fits
}

// canPackExact is CanPack's cold path and test oracle: an exact
// backtracking matcher over the demanded roles, scarcest first. PLBs
// have at most a handful of slots.
func (a *PLBArch) canPackExact(instances []*Config) bool {
	var demands []Role
	for _, inst := range instances {
		demands = append(demands, inst.Roles...)
	}
	if len(demands) > len(a.Slots) {
		return false
	}
	// Order demands by scarcity (fewest serving slots first) to prune.
	scarcity := a.legality().scarcity
	sort.SliceStable(demands, func(i, j int) bool { return scarcity[demands[i]] < scarcity[demands[j]] })
	used := make([]bool, len(a.Slots))
	var match func(i int) bool
	match = func(i int) bool {
		if i == len(demands) {
			return true
		}
		for si, s := range a.Slots {
			if used[si] || !s.serves(demands[i]) {
				continue
			}
			used[si] = true
			if match(i + 1) {
				return true
			}
			used[si] = false
		}
		return false
	}
	return match(0)
}

// legality is an architecture's precomputed slot-matching data: how
// many slots serve each role, and the memo of CanPack answers keyed by
// role-count signature.
type legality struct {
	roles    []Role       // every role some slot serves
	scarcity map[Role]int // number of slots serving each role
	slots    int
	width    uint // bits per role count in a signature
	memoized bool // the signature fits in 64 bits

	mu   sync.RWMutex
	memo map[uint64]bool
}

// legality builds the architecture's matching data on first use.
func (a *PLBArch) legality() *legality {
	a.legalOnce.Do(func() {
		l := &legality{scarcity: map[Role]int{}, slots: len(a.Slots),
			width: uint(bits.Len(uint(len(a.Slots)))), memo: map[uint64]bool{}}
		for _, s := range a.Slots {
			for _, r := range s.Serves {
				if l.scarcity[r] == 0 {
					l.roles = append(l.roles, r)
				}
				l.scarcity[r]++
			}
		}
		l.memoized = l.width*uint(len(l.roles)) <= 64
		a.legal = l
	})
	return a.legal
}

// signature packs the per-role demand counts of instances into one
// word, width bits per role, without allocating. ok is false when the
// instances cannot fit in any case: a role no slot serves, or more
// demands than slots. Counts never exceed the slot count, so fields
// never overflow into their neighbours.
func (l *legality) signature(instances []*Config) (sig uint64, ok bool) {
	total := 0
	for _, inst := range instances {
		for _, r := range inst.Roles {
			ri := -1
			for i, x := range l.roles {
				if x == r {
					ri = i
					break
				}
			}
			total++
			if ri < 0 || total > l.slots {
				return 0, false
			}
			if l.memoized {
				sig += 1 << (uint(ri) * l.width)
			}
		}
	}
	return sig, true
}

// SlotSummary renders the slot composition, e.g.
// "2×MUX2 + 1×XOA + 1×ND3WI + 1×DFF".
func (a *PLBArch) SlotSummary() string {
	counts := map[string]int{}
	var order []string
	for _, s := range a.Slots {
		if counts[s.Component] == 0 {
			order = append(order, s.Component)
		}
		counts[s.Component]++
	}
	out := ""
	for i, comp := range order {
		if i > 0 {
			out += " + "
		}
		out += fmt.Sprintf("%d×%s", counts[comp], comp)
	}
	return out
}
