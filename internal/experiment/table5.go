package experiment

import (
	"fmt"
	"strings"

	"intango/internal/core"
)

// Table5Cell is one (packet type, discrepancy) construction with its
// validation outcome.
type Table5Cell struct {
	PacketType  string
	Discrepancy core.Discrepancy
	Preferred   bool
	// Validated: a controlled trial using an evasion strategy built on
	// exactly this insertion construction succeeded.
	Validated bool
}

// table5Spec is one Table 5 construction with the strategy that
// exercises it.
type table5Spec struct {
	ptype string
	disc  core.Discrepancy
	strategySpec
}

// table5Constructions lists the preferred insertion-packet
// constructions in table order, each with the strategy built on it.
func table5Constructions() []table5Spec {
	// SYN insertions are exercised by the combined creation strategy
	// (its insertions are TTL-crafted SYNs).
	syn := table4Strategies()[2].strategySpec // creation-resync-desync
	rst := func(d core.Discrepancy) table5Spec {
		return table5Spec{"RST", d, strategySpec{"teardown-rst/" + d.String(),
			"on:first-payload[teardown(flags=rst,disc=" + d.String() + ")]"}}
	}
	data := func(d core.Discrepancy) table5Spec {
		return table5Spec{"Data", d, strategySpec{"prefill/" + d.String(),
			"on:first-payload[inject(prefill,disc=" + d.String() + ")]"}}
	}
	return []table5Spec{
		{"SYN", core.DiscTTL, syn},
		rst(core.DiscTTL),
		rst(core.DiscMD5),
		data(core.DiscTTL),
		data(core.DiscMD5),
		data(core.DiscBadAck),
		data(core.DiscOldTimestamp),
	}
}

// RunTable5 reproduces Table 5: for every preferred insertion-packet
// construction, run the corresponding strategy on clean controlled
// paths and confirm it evades on every one.
func RunTable5(r *Runner) []Table5Cell {
	vp := VantagePoints()[0] // Aliyun profile, benign for these packets
	servers := controlledServers(r, 3)
	specs := table5Constructions()
	var jobs []trialJob
	for i, spec := range specs {
		factory := spec.compile()
		for _, srv := range servers {
			jobs = append(jobs, trialJob{vp, srv, factory, true, 0, i, spec.name, r.Censor})
		}
	}
	cells := make([]Table5Cell, len(specs))
	for i, t := range r.RunParallel(jobs, len(specs), r.Workers) {
		spec := specs[i]
		cells[i] = Table5Cell{PacketType: spec.ptype, Discrepancy: spec.disc,
			Preferred: preferred(spec.ptype, spec.disc), Validated: t.Success == t.Total}
	}
	return cells
}

func preferred(ptype string, d core.Discrepancy) bool {
	for _, p := range core.PreferredDiscrepancies[ptype] {
		if p == d {
			return true
		}
	}
	return false
}

// FormatTable5 renders the preferred-construction matrix with
// validation marks.
func FormatTable5(cells []Table5Cell) string {
	discs := []core.Discrepancy{core.DiscTTL, core.DiscMD5, core.DiscBadAck, core.DiscOldTimestamp}
	types := []string{"SYN", "RST", "Data"}
	cell := func(t string, d core.Discrepancy) string {
		for _, c := range cells {
			if c.PacketType == t && c.Discrepancy == d {
				if c.Validated {
					return "ok"
				}
				return "FAIL"
			}
		}
		return "-"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %-8s %-8s %-12s\n", "Type", "TTL", "MD5", "BadACK", "Timestamp")
	for _, t := range types {
		fmt.Fprintf(&b, "%-8s", t)
		for _, d := range discs {
			fmt.Fprintf(&b, " %-8s", cell(t, d))
		}
		b.WriteString("\n")
	}
	return b.String()
}
