package planverify

import (
	"math"
	"strings"

	"pdwqo/internal/core"
)

// CheckPlan verifies the winning plan tree one option at a time: the
// placement rules (placement.go) must accept the option's inputs as
// their placements are recorded, and must give exactly the placement the
// option records. The check is local — an option is judged against its
// inputs' recorded placements, not against a re-derivation of them — so
// one defect yields one violation instead of a cascade up the tree.
func CheckPlan(p *core.Plan) []Violation {
	var out []Violation
	if p == nil || p.Root == nil {
		return []Violation{violation(CodeMalformedOption, "plan has no root option")}
	}
	if p.TotalCost < 0 || math.IsNaN(p.TotalCost) {
		out = append(out, violation(CodeEstimateNegative, "plan cost total=%g", p.TotalCost))
	}
	// Shared subplans alias the same *Option; verify each node once.
	seen := map[*core.Option]bool{}
	var walk func(o *core.Option)
	walk = func(o *core.Option) {
		if seen[o] {
			return
		}
		seen[o] = true
		out = append(out, checkOption(o)...)
		for _, in := range o.Inputs {
			walk(in)
		}
	}
	walk(p.Root)
	out = append(out, checkAggSplit(p)...)
	return out
}

// checkOption verifies one plan node against its inputs.
func checkOption(o *core.Option) []Violation {
	if (o.Op == nil) == (o.Move == nil) {
		return []Violation{violation(CodeMalformedOption,
			"option must carry exactly one of an operator and a movement")}
	}
	out := checkEstimates(o)
	in := make([]core.Distribution, len(o.Inputs))
	for i, c := range o.Inputs {
		in[i] = c.Dist
	}
	switch d, code := Placement(o, in); {
	case code != "":
		out = append(out, violation(code, "%s over %s", describe(o), placements(in)))
	case !SamePlacement(d, o.Dist):
		out = append(out, violation(CodePlacementMismatch,
			"%s records %s but its inputs %s give %s", describe(o), o.Dist, placements(in), d))
	}
	return out
}

// checkEstimates rejects negative/NaN estimates and non-monotone costs:
// an option's cumulative movement cost can never undercut an input's.
func checkEstimates(o *core.Option) []Violation {
	var out []Violation
	bad := func(v float64) bool { return v < 0 || math.IsNaN(v) }
	if bad(o.Rows) || bad(o.Width) || bad(o.DMSCost) {
		out = append(out, violation(CodeEstimateNegative,
			"option %s rows=%g width=%g dms=%g", describe(o), o.Rows, o.Width, o.DMSCost))
	}
	for _, in := range o.Inputs {
		if o.DMSCost < in.DMSCost-1e-9 {
			out = append(out, violation(CodeEstimateNegative,
				"option %s cost %g below input cost %g", describe(o), o.DMSCost, in.DMSCost))
		}
	}
	return out
}

func describe(o *core.Option) string {
	if o.Move != nil {
		return o.Move.String()
	}
	if o.Op != nil {
		return o.Op.OpName()
	}
	return "<empty>"
}

// placements renders input placements as "(hash(c1), replicated)".
func placements(in []core.Distribution) string {
	parts := make([]string, len(in))
	for i, d := range in {
		parts[i] = d.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
