// Package pack legalizes an ASIC-style placement of configuration
// instances into a regular array of PLBs, implementing the paper's
// packing stage (Sec. 3.1): recursive quadrisection, relocating cells
// to regions with available resources under a cost that weighs cell
// criticality and minimizes perturbation of the ASIC placement, run in
// an iterative loop with incremental placement refinement.
package pack

import (
	"fmt"
	"math"
	"sort"

	"vpga/internal/cells"
	"vpga/internal/flowmap"
	"vpga/internal/netlist"
	"vpga/internal/place"
)

// Options tunes the packer.
type Options struct {
	// MaxIterations bounds the pack ⇄ refine loop (default 4).
	MaxIterations int
	// Margin is the PLB-count headroom over the resource lower bound
	// when sizing the initial array (default 1.10).
	Margin float64
	// Criticality holds a per-object timing weight (same indexing as
	// the placement problem); more critical objects move last. May be
	// nil.
	Criticality []float64
	Seed        int64
}

// Result describes the legal PLB array.
type Result struct {
	Rows, Cols int
	// PLBOf maps placement object index to PLB index (row*Cols+col);
	// -1 for pads.
	PLBOf []int
	// DieArea is Rows × Cols × PLB area.
	DieArea float64
	// Perturbation is the mean displacement between the ASIC placement
	// and the final legal positions, in PLB pitches.
	Perturbation float64
	// UsedPLBs counts PLBs hosting at least one instance.
	UsedPLBs int
	// Iterations actually run in the pack ⇄ refine loop.
	Iterations int
}

// Utilization is the fraction of PLBs occupied.
func (r *Result) Utilization() float64 {
	return float64(r.UsedPLBs) / float64(r.Rows*r.Cols)
}

// packer carries one run's state.
type packer struct {
	arch *cells.PLBArch
	nl   *netlist.Netlist
	prob *place.Problem
	opts Options

	// demand per object: the configuration roles it needs inside a PLB
	// (nil for pads and absorbed buffers).
	objCfg []*cells.Config
	crit   []float64
	pitch  float64
	rows   int
	cols   int

	// objRoles[i] is objCfg[i]'s roles as roleOrder indices.
	objRoles [][]uint8

	// Slot types for aggFeasible's max-flow, by component name in
	// sorted order: the slot types serving each role, and each type's
	// slots per PLB.
	roleSlots [maxRoles][]int
	slotCount []int
}

// roleOrder indexes every role a configuration may demand; a roleCount
// counts demand per role in this order.
var roleOrder = [...]cells.Role{
	cells.RoleMux, cells.RoleXoa, cells.RoleNand, cells.RoleNd2,
	cells.RoleSimple2, cells.RoleLUT, cells.RoleDFF, cells.RoleBuf,
}

const maxRoles = len(roleOrder)

// roleCount tallies role demand, indexed like roleOrder. It is a value
// array, so demand probes allocate nothing.
type roleCount [maxRoles]int

// roleIndex returns r's index in roleOrder, or -1 for an unknown role.
func roleIndex(r cells.Role) int {
	for i, x := range roleOrder {
		if x == r {
			return i
		}
	}
	return -1
}

// Run packs the compacted netlist's placement into the smallest PLB
// array that legalizes. The placement problem's object positions are
// updated to the legal PLB centers.
func Run(nl *netlist.Netlist, arch *cells.PLBArch, prob *place.Problem, opts Options) (*Result, error) {
	if opts.MaxIterations == 0 {
		opts.MaxIterations = 4
	}
	if opts.Margin == 0 {
		opts.Margin = 1.10
	}
	p := &packer{arch: arch, nl: nl, prob: prob, opts: opts, pitch: math.Sqrt(arch.Area)}
	if err := p.resolveConfigs(); err != nil {
		return nil, err
	}
	p.crit = opts.Criticality
	if p.crit == nil {
		p.crit = make([]float64, len(prob.Objs))
	}

	n := p.lowerBoundPLBs()
	side := int(math.Ceil(math.Sqrt(float64(n) * opts.Margin)))
	for attempt := 0; attempt < 12; attempt++ {
		p.rows, p.cols = side, side
		res, err := p.attempt()
		if err == nil {
			return res, nil
		}
		side++
	}
	return nil, fmt.Errorf("pack: no legal array found up to %d×%d", side-1, side-1)
}

// resolveConfigs binds every placeable object to its configuration
// demand.
func (p *packer) resolveConfigs() error {
	p.objCfg = make([]*cells.Config, len(p.prob.Objs))
	p.objRoles = make([][]uint8, len(p.prob.Objs))
	byCfg := map[*cells.Config][]uint8{}
	for i := range p.prob.Objs {
		o := &p.prob.Objs[i]
		if o.IsPad {
			continue
		}
		n := p.nl.Node(o.Nodes[0])
		switch {
		case n.Kind == netlist.KindDFF:
			p.objCfg[i] = p.arch.Config("FF")
		case n.Type == "INV":
			// Absorbed into the PLB's input polarity rails.
		case n.Type == "BUF":
			// Repeater/fanout buffers occupy the PLB's buffer slots.
			p.objCfg[i] = p.arch.Config("BUF")
		default:
			cfg := p.arch.Config(n.Type)
			if cfg == nil {
				return fmt.Errorf("pack: object %d has unknown configuration %q", i, n.Type)
			}
			p.objCfg[i] = cfg
		}
		cfg := p.objCfg[i]
		if cfg == nil {
			continue
		}
		roles, seen := byCfg[cfg]
		if !seen {
			for _, r := range cfg.Roles {
				ri := roleIndex(r)
				if ri < 0 {
					return fmt.Errorf("pack: configuration %s demands unknown role %q", cfg.Name, r)
				}
				roles = append(roles, uint8(ri))
			}
			byCfg[cfg] = roles
		}
		p.objRoles[i] = roles
	}
	return nil
}

// lowerBoundPLBs computes the resource-driven lower bound on the PLB
// count via aggregate role matching.
func (p *packer) lowerBoundPLBs() int {
	demand := p.roleDemand(nil)
	lo, hi := 1, 1
	for !p.aggFeasible(&demand, hi) {
		hi *= 2
		if hi > 1<<22 {
			break
		}
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if p.aggFeasible(&demand, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// roleDemand tallies role demands over the given objects (nil = all).
func (p *packer) roleDemand(objs []int32) roleCount {
	var d roleCount
	if objs == nil {
		for i := range p.objRoles {
			p.addRoles(&d, int32(i), 1)
		}
	} else {
		for _, i := range objs {
			p.addRoles(&d, i, 1)
		}
	}
	return d
}

// addRoles adds sign times object o's role demand to d.
func (p *packer) addRoles(d *roleCount, o int32, sign int) {
	for _, ri := range p.objRoles[o] {
		d[ri] += sign
	}
}

// slotTypes groups the architecture's slots by component name for
// aggFeasible, which calls it once per packer.
func (p *packer) slotTypes() {
	serves := map[string][]cells.Role{}
	count := map[string]int{}
	for _, s := range p.arch.Slots {
		serves[s.Component] = s.Serves
		count[s.Component]++
	}
	types := make([]string, 0, len(serves))
	for k := range serves {
		types = append(types, k)
	}
	sort.Strings(types)
	for j, t := range types {
		for _, r := range serves[t] {
			if ri := roleIndex(r); ri >= 0 {
				p.roleSlots[ri] = append(p.roleSlots[ri], j)
			}
		}
		p.slotCount = append(p.slotCount, count[t])
	}
}

// aggFeasible checks by max-flow whether numPLBs PLBs can satisfy the
// aggregate role demand (per-PLB integrality is enforced later at the
// leaves).
func (p *packer) aggFeasible(demand *roleCount, numPLBs int) bool {
	if p.slotCount == nil {
		p.slotTypes()
	}
	// Nodes: 0 source, 1 sink, 2..1+maxRoles roles, then slot types.
	// Roles without demand get no edge; the max-flow value, the only
	// thing read, does not depend on node or edge order.
	g := flowmap.NewDinic(2 + maxRoles + len(p.slotCount))
	total := 0
	for ri, n := range demand {
		if n == 0 {
			continue
		}
		total += n
		g.AddEdge(0, 2+ri, int64(n))
		for _, j := range p.roleSlots[ri] {
			g.AddEdge(2+ri, 2+maxRoles+j, flowmap.Inf)
		}
	}
	for j, n := range p.slotCount {
		g.AddEdge(2+maxRoles+j, 1, int64(n*numPLBs))
	}
	return g.MaxFlow(0, 1, -1) >= int64(total)
}

// attempt runs the full quadrisection + overflow-resolution loop for
// the current array size.
func (p *packer) attempt() (*Result, error) {
	prob := p.prob
	// Record the ASIC positions for perturbation accounting, scaled to
	// array coordinates.
	asic := make([]coord, len(prob.Objs))
	sx := float64(p.cols) * p.pitch / prob.W
	sy := float64(p.rows) * p.pitch / prob.H
	for i := range prob.Objs {
		asic[i] = coord{prob.Objs[i].X * sx, prob.Objs[i].Y * sy}
	}
	pos := make([]coord, len(asic))
	copy(pos, asic)

	assign := make([]int, len(prob.Objs))
	iter := 0
	for ; iter < p.opts.MaxIterations; iter++ {
		for i := range assign {
			assign[i] = -1
		}
		if err := p.quadrisect(pos, assign); err != nil {
			return nil, err
		}
		if err := p.resolveLeaves(pos, assign); err != nil {
			return nil, err
		}
		// Snap to assigned PLB centers and refine the surviving slack
		// via the placement's local improvement (the paper's iteration
		// with physical synthesis).
		moved := 0.0
		for i := range prob.Objs {
			if prob.Objs[i].IsPad || assign[i] < 0 {
				continue
			}
			cx := (float64(assign[i]%p.cols) + 0.5) * p.pitch
			cy := (float64(assign[i]/p.cols) + 0.5) * p.pitch
			moved += math.Hypot(pos[i].x-cx, pos[i].y-cy)
			pos[i] = coord{cx, cy}
		}
		if moved/p.pitch < 0.5*float64(len(prob.Objs)) {
			iter++
			break
		}
	}

	// Commit: final legal positions into the placement problem.
	perturb := 0.0
	movable := 0
	used := map[int]bool{}
	for i := range prob.Objs {
		o := &prob.Objs[i]
		if o.IsPad {
			continue
		}
		if assign[i] < 0 {
			return nil, fmt.Errorf("pack: object %d unassigned", i)
		}
		cx := (float64(assign[i]%p.cols) + 0.5) * p.pitch
		cy := (float64(assign[i]/p.cols) + 0.5) * p.pitch
		o.X = cx / sx
		o.Y = cy / sy
		perturb += math.Hypot(asic[i].x-cx, asic[i].y-cy) / p.pitch
		movable++
		used[assign[i]] = true
	}
	res := &Result{
		Rows:         p.rows,
		Cols:         p.cols,
		PLBOf:        assign,
		DieArea:      float64(p.rows*p.cols) * p.arch.Area,
		Perturbation: perturb / math.Max(1, float64(movable)),
		UsedPLBs:     len(used),
		Iterations:   iter,
	}
	return res, nil
}
