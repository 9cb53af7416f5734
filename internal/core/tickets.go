package core

// suiteDesigns are the FlowRequest design names of a matrix suite's
// designs, index-aligned with bench.Suite.All.
var suiteDesigns = []string{"alu", "firewire", "fpu", "switch"}

// Request is the cell's canonical FlowRequest. base supplies what
// every cell of the composite shares — the scale and result-bearing
// knobs, and a sweep's design block — and the cell sets its own
// design (matrix cells), architecture, flow and clock. Cells of the
// in-process RunGranularitySweep, whose family comes resolved, carry
// no architecture spec and so have no request form.
func (c Cell) Request(base FlowRequest) FlowRequest {
	if c.design != "" {
		base.Design = c.design
	}
	base.Arch = c.spec
	base.Flow = "b"
	if c.Flow == FlowA {
		base.Flow = "a"
	}
	base.ClockPeriod = c.Clock
	return base.Normalize()
}

// DefaultSweepArchSpecs is the E8 architecture family as serializable
// specs — the declarative source DefaultSweepArchs resolves, and what
// a coordinator ships when a sweep request names no family.
func DefaultSweepArchSpecs() []ArchSpec {
	return []ArchSpec{
		{Kind: "lut"},
		{Kind: "granular"},
		{Kind: "custom", Name: "coarse-lut2", Nand: 1, Lut: 2, FF: 1},
		{Kind: "custom", Name: "fine-mux4", Mux: 3, Xoa: 1, Nand: 1, FF: 1},
		{Kind: "custom", Name: "fine-mux6", Mux: 4, Xoa: 2, Nand: 2, FF: 1},
		{Kind: "custom", Name: "ff-rich", Mux: 2, Xoa: 1, Nand: 1, FF: 2},
	}
}
