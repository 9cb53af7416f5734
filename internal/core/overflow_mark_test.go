package core

import (
	"strings"
	"testing"

	"vpga/internal/bench"
)

// handMatrix is a one-design matrix of hand-made reports; the cell
// named overflows leaves overflow in its route.
func handMatrix(overflowArch, overflowFlow string, overflow int) *Matrix {
	d := bench.ALU(8)
	m := &Matrix{Designs: []bench.Design{d}, Reports: map[string]map[string]map[string]*Report{}}
	m.Reports[d.Name] = map[string]map[string]*Report{}
	for _, arch := range []string{"granular-plb", "lut-plb"} {
		m.Reports[d.Name][arch] = map[string]*Report{}
		for _, flow := range []string{"flow a", "flow b"} {
			rep := &Report{Design: d.Name, Arch: arch, Flow: flow,
				DieArea: 1234, AvgTopSlack: -56.7, GateCount: 89, ClockPeriod: 1000}
			if arch == overflowArch && flow == overflowFlow {
				rep.Overflow = overflow
			}
			m.Reports[d.Name][arch][flow] = rep
		}
	}
	return m
}

// TestTablesMarkOverflow: a cell reported from an overflowing route is
// marked in Tables 1 and 2 and footnoted; tables without one carry
// neither mark nor footnote, and the summary line says overflow=N
// only when N > 0.
func TestTablesMarkOverflow(t *testing.T) {
	legal := handMatrix("", "", 0)
	for _, tab := range []string{legal.Table1(), legal.Table2()} {
		if strings.Contains(tab, "*") {
			t.Errorf("legal matrix carries an overflow mark:\n%s", tab)
		}
	}
	if s := legal.Reports["ALU"]["lut-plb"]["flow b"].summary(); strings.Contains(s, "overflow") {
		t.Errorf("legal summary mentions overflow: %q", s)
	}

	m := handMatrix("lut-plb", "flow b", 321)
	t1, t2 := m.Table1(), m.Table2()
	if !strings.HasSuffix(strings.Split(t1, "\n")[3], "        1234*") || strings.Count(t1, "*") != 2 {
		t.Errorf("Table 1 does not mark exactly the LUT flow-b cell:\n%s", t1)
	}
	if !strings.Contains(t2, " -56.7*") || strings.Count(t2, "*") != 2 {
		t.Errorf("Table 2 does not mark exactly the LUT flow-b slack:\n%s", t2)
	}
	for _, tab := range []string{t1, t2} {
		lines := strings.Split(strings.TrimSuffix(tab, "\n"), "\n")
		if last := lines[len(lines)-1]; !strings.HasPrefix(last, "* ") {
			t.Errorf("table ends without the overflow footnote: %q", last)
		}
		// A mark takes a place in its cell's width: the marked row is
		// as wide as the header row.
		if len(lines[len(lines)-2]) != len(lines[len(lines)-3]) {
			t.Errorf("marked row changed width:\n%s", tab)
		}
	}
	if s := m.Reports["ALU"]["lut-plb"]["flow b"].summary(); !strings.HasSuffix(s, " overflow=321") {
		t.Errorf("summary %q does not end in overflow=321", s)
	}
}
