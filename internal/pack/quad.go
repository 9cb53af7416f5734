package pack

import (
	"fmt"
	"math"
	"sort"

	"vpga/internal/cells"
)

// coord is a position in array coordinates (PLB pitch units × pitch).
type coord struct{ x, y float64 }

// region is a rectangle of PLBs [r0,r1) × [c0,c1).
type region struct{ r0, r1, c0, c1 int }

func (r region) plbs() int { return (r.r1 - r.r0) * (r.c1 - r.c0) }

func (r region) contains(p *packer, pt coord) bool {
	c := int(pt.x / p.pitch)
	row := int(pt.y / p.pitch)
	return row >= r.r0 && row < r.r1 && c >= r.c0 && c < r.c1
}

func (r region) center(p *packer) coord {
	return coord{
		x: (float64(r.c0) + float64(r.c1-r.c0)/2) * p.pitch,
		y: (float64(r.r0) + float64(r.r1-r.r0)/2) * p.pitch,
	}
}

// quadrisect recursively partitions objects into PLB regions, moving
// overflow to sibling quadrants (least-critical, least-displacement
// first), and assigns single-PLB regions into assign.
func (p *packer) quadrisect(pos []coord, assign []int) error {
	var all []int32
	for i := range p.prob.Objs {
		if !p.prob.Objs[i].IsPad {
			all = append(all, int32(i))
		}
	}
	root := region{0, p.rows, 0, p.cols}
	return p.quadRec(root, all, pos, assign)
}

func (p *packer) quadRec(reg region, objs []int32, pos []coord, assign []int) error {
	if len(objs) == 0 {
		return nil
	}
	if reg.plbs() == 1 {
		idx := reg.r0*p.cols + reg.c0
		for _, o := range objs {
			assign[o] = idx
		}
		return nil
	}
	// Split the longer side first; quadrants may degenerate to halves
	// for 1-wide regions.
	rm := (reg.r0 + reg.r1) / 2
	cm := (reg.c0 + reg.c1) / 2
	var quads []region
	for _, q := range []region{
		{reg.r0, maxInt(rm, reg.r0+1), reg.c0, maxInt(cm, reg.c0+1)},
		{reg.r0, maxInt(rm, reg.r0+1), maxInt(cm, reg.c0+1), reg.c1},
		{maxInt(rm, reg.r0+1), reg.r1, reg.c0, maxInt(cm, reg.c0+1)},
		{maxInt(rm, reg.r0+1), reg.r1, maxInt(cm, reg.c0+1), reg.c1},
	} {
		if q.r1 > q.r0 && q.c1 > q.c0 && !containsRegion(quads, q) {
			quads = append(quads, q)
		}
	}
	buckets := make([][]int32, len(quads))
	for _, o := range objs {
		qi := p.nearestQuad(quads, pos[o])
		buckets[qi] = append(buckets[qi], o)
	}
	p.balance(quads, buckets, pos)
	for qi, q := range quads {
		if err := p.quadRec(q, buckets[qi], pos, assign); err != nil {
			return err
		}
	}
	return nil
}

func containsRegion(rs []region, q region) bool {
	for _, r := range rs {
		if r == q {
			return true
		}
	}
	return false
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (p *packer) nearestQuad(quads []region, pt coord) int {
	for qi, q := range quads {
		if q.contains(p, pt) {
			return qi
		}
	}
	// Outside all (numerical edge): nearest center.
	best, bestD := 0, math.Inf(1)
	for qi, q := range quads {
		c := q.center(p)
		d := math.Hypot(c.x-pt.x, c.y-pt.y)
		if d < bestD {
			best, bestD = qi, d
		}
	}
	return best
}

// balance moves objects out of over-demanded quadrants into feasible
// siblings until every quadrant's aggregate demand fits its supply.
// Move order: least critical first, then smallest displacement.
// Demand tallies are maintained incrementally so large designs avoid
// rescanning buckets per candidate.
func (p *packer) balance(quads []region, buckets [][]int32, pos []coord) {
	demands := make([]roleCount, len(quads))
	for qi := range quads {
		demands[qi] = p.roleDemand(buckets[qi])
	}
	for qi := range quads {
		if p.aggFeasible(&demands[qi], quads[qi].plbs()) {
			continue
		}
		// Candidates to evict, cheapest first.
		cands := append([]int32(nil), buckets[qi]...)
		sort.SliceStable(cands, func(a, b int) bool {
			ca, cb := p.crit[cands[a]], p.crit[cands[b]]
			if ca != cb {
				return ca < cb
			}
			// Prefer objects nearest a sibling boundary (minimal
			// perturbation when moved).
			return p.boundaryDist(quads[qi], pos[cands[a]]) < p.boundaryDist(quads[qi], pos[cands[b]])
		})
		moved := map[int32]int{} // object -> receiving quadrant
		for _, o := range cands {
			if p.objCfg[o] == nil {
				continue // absorbed inverters never constrain resources
			}
			if p.aggFeasible(&demands[qi], quads[qi].plbs()) {
				break
			}
			// Receiving sibling: nearest center with spare capacity for
			// this object's roles.
			bestQ, bestD := -1, math.Inf(1)
			for qj := range quads {
				if qj == qi {
					continue
				}
				p.addRoles(&demands[qj], o, 1)
				ok := p.aggFeasible(&demands[qj], quads[qj].plbs())
				p.addRoles(&demands[qj], o, -1)
				if !ok {
					continue
				}
				c := quads[qj].center(p)
				d := math.Hypot(c.x-pos[o].x, c.y-pos[o].y)
				if d < bestD {
					bestQ, bestD = qj, d
				}
			}
			if bestQ < 0 {
				continue // overfull everywhere; the leaf pass will retry globally
			}
			p.addRoles(&demands[qi], o, -1)
			p.addRoles(&demands[bestQ], o, 1)
			moved[o] = bestQ
			// Nudge the position toward the receiving region so deeper
			// levels keep it there.
			c := quads[bestQ].center(p)
			pos[o] = coord{(pos[o].x + 2*c.x) / 3, (pos[o].y + 2*c.y) / 3}
		}
		if len(moved) > 0 {
			var keep []int32
			for _, o := range buckets[qi] {
				if qj, gone := moved[o]; gone {
					buckets[qj] = append(buckets[qj], o)
				} else {
					keep = append(keep, o)
				}
			}
			buckets[qi] = keep
		}
	}
}

func (p *packer) boundaryDist(q region, pt coord) float64 {
	left := pt.x - float64(q.c0)*p.pitch
	right := float64(q.c1)*p.pitch - pt.x
	top := pt.y - float64(q.r0)*p.pitch
	bottom := float64(q.r1)*p.pitch - pt.y
	return math.Min(math.Min(left, right), math.Min(top, bottom))
}

func removeObj(xs []int32, o int32) []int32 {
	for i, x := range xs {
		if x == o {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}

// resolveLeaves enforces per-PLB packing feasibility: every PLB's
// assigned configuration set must pass the exact slot matcher; extras
// spiral outward to the nearest PLB with room.
func (p *packer) resolveLeaves(pos []coord, assign []int) error {
	n := p.rows * p.cols
	occupants := make([][]int32, n)
	for i := range p.prob.Objs {
		if p.prob.Objs[i].IsPad || assign[i] < 0 {
			continue
		}
		occupants[assign[i]] = append(occupants[assign[i]], int32(i))
	}
	var scratch []*cells.Config // reused by canHost across candidates
	canHost := func(plb int, extra int32) bool {
		cfgs := scratch[:0]
		for _, o := range occupants[plb] {
			if c := p.objCfg[o]; c != nil {
				cfgs = append(cfgs, c)
			}
		}
		if c := p.objCfg[extra]; c != nil {
			cfgs = append(cfgs, c)
		}
		scratch = cfgs
		return p.arch.CanPack(cfgs)
	}
	for plb := 0; plb < n; plb++ {
		var cfgs []*cells.Config
		var resObjs []int32
		for _, o := range occupants[plb] {
			if c := p.objCfg[o]; c != nil {
				cfgs = append(cfgs, c)
				resObjs = append(resObjs, o)
			}
		}
		if p.arch.CanPack(cfgs) {
			continue
		}
		// Evict least-critical occupants until the remainder fits.
		sort.SliceStable(resObjs, func(a, b int) bool { return p.crit[resObjs[a]] < p.crit[resObjs[b]] })
		var evicted []int32
		for _, o := range resObjs {
			occupants[plb] = removeObj(occupants[plb], o)
			evicted = append(evicted, o)
			var rest []*cells.Config
			for _, q := range occupants[plb] {
				if c := p.objCfg[q]; c != nil {
					rest = append(rest, c)
				}
			}
			if p.arch.CanPack(rest) {
				break
			}
		}
		for _, o := range evicted {
			target := p.spiralFind(plb, func(cand int) bool { return canHost(cand, o) })
			if target < 0 {
				return fmt.Errorf("pack: PLB array %d×%d cannot host object %d", p.rows, p.cols, o)
			}
			occupants[target] = append(occupants[target], o)
			assign[o] = target
		}
	}
	return nil
}

// spiralFind scans PLBs in increasing Chebyshev distance from start
// and returns the first one satisfying ok, or -1.
func (p *packer) spiralFind(start int, ok func(int) bool) int {
	sr, sc := start/p.cols, start%p.cols
	maxR := maxInt(p.rows, p.cols)
	for d := 1; d <= maxR; d++ {
		for r := sr - d; r <= sr+d; r++ {
			if r < 0 || r >= p.rows {
				continue
			}
			for c := sc - d; c <= sc+d; c++ {
				if c < 0 || c >= p.cols {
					continue
				}
				if maxInt(absInt(r-sr), absInt(c-sc)) != d {
					continue
				}
				idx := r*p.cols + c
				if ok(idx) {
					return idx
				}
			}
		}
	}
	return -1
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
