// Package core implements the PDW query optimizer (paper §3, Figure 4):
// it parses the serial MEMO exported from the SQL-Server-side optimizer,
// derives interesting properties (equijoin and group-by columns), runs a
// bottom-up enumeration that injects data-movement operations, prunes with
// the DMS-only cost model (best overall + best per interesting property),
// and extracts the cheapest distributed execution plan.
package core

import (
	"fmt"

	"pdwqo/internal/algebra"
	"pdwqo/internal/cost"
)

// DistKind classifies how an intermediate result is placed on the
// appliance.
type DistKind uint8

// Placement kinds.
const (
	// DistHash: rows are spread over compute nodes by a hash of the
	// column(s) in Distribution.Cols; an empty set means "distributed,
	// partitioning column unknown" (e.g. after projecting it away).
	DistHash DistKind = iota
	// DistReplicated: every compute node holds the full relation.
	DistReplicated
	// DistSingle: the whole relation sits on the control node.
	DistSingle
)

// Distribution is the physical placement property of an option. For
// DistHash, Cols is the equivalence class of output columns known equal to
// the partitioning value: a relation hashed on ps_partkey that also
// outputs p_partkey (joined by equality) is hashed "on both". Cols only
// ever holds columns of the exported memo (at most Decoded.MaxCol): the
// state columns a partial aggregate mints above that range are never a
// partitioning column, because a split hashes only on group-by keys.
type Distribution struct {
	Kind DistKind
	Cols algebra.ColSet
}

// HashOn builds a hash distribution on the given columns.
func HashOn(cols ...algebra.ColumnID) Distribution {
	return Distribution{Kind: DistHash, Cols: algebra.NewColSet(cols...)}
}

// Replicated is the replicated placement.
func Replicated() Distribution { return Distribution{Kind: DistReplicated} }

// Single is the control-node placement.
func Single() Distribution { return Distribution{Kind: DistSingle} }

// String renders the placement for plan display.
func (d Distribution) String() string {
	switch d.Kind {
	case DistReplicated:
		return "replicated"
	case DistSingle:
		return "single-node"
	default:
		if d.Cols.Len() == 0 {
			return "distributed(?)"
		}
		cols := d.Cols.String() // "{c1,c2}"
		return "hash(" + cols[1:len(cols)-1] + ")"
	}
}

// restrict drops hash columns no longer present in the output and applies
// pass-through renames (projection support). A class already inside out
// comes back as it is: a distribution's columns never change once built,
// so options may share them.
func (d Distribution) restrict(out algebra.ColSet, rename map[algebra.ColumnID][]algebra.ColumnID) Distribution {
	if d.Kind != DistHash || (len(rename) == 0 && d.Cols.SubsetOf(out)) {
		return d
	}
	cols := d.Cols.Intersect(out)
	d.Cols.ForEach(func(id algebra.ColumnID) {
		for _, nid := range rename[id] {
			if out.Has(nid) {
				cols.Add(nid)
			}
		}
	})
	return Distribution{Kind: DistHash, Cols: cols}
}

// MoveSpec describes one data-movement operation in a plan.
type MoveSpec struct {
	Kind cost.MoveKind
	Col  algebra.ColumnID // hash column for Shuffle / Trim
}

// String renders the move for plan display.
func (m MoveSpec) String() string {
	if m.Kind == cost.Shuffle || m.Kind == cost.Trim {
		return fmt.Sprintf("%s(c%d)", m.Kind, m.Col)
	}
	return m.Kind.String()
}

// Option is one costed distributed implementation of a group (or of an
// internal construct such as a local aggregation): either a relational
// operator over child options, or a data movement over one input.
type Option struct {
	// Op is the relational payload; nil when Move is set.
	Op algebra.Operator
	// Move is the data movement; nil when Op is set.
	Move   *MoveSpec
	Inputs []*Option

	Dist    Distribution
	Rows    float64
	Width   float64
	OutCols []algebra.ColumnMeta

	// DMSCost is the cumulative data-movement cost (the paper's plan
	// cost); TieCost is a cumulative relational-work tiebreaker so equal-
	// movement plans pick the cheaper serial shape.
	DMSCost float64
	TieCost float64

	// in backs Inputs: an option and its inputs (at most two) are one
	// allocation.
	in [2]*Option
}

// Cost returns the plan cost (DMS only, per §3.3).
func (o *Option) Cost() float64 { return o.DMSCost }

// Idempotent reports whether the DSQL step cut at this option can be
// re-executed after a failure without changing the query's result. Move
// options qualify: a DMS operation reads committed sources and
// materializes into a private temp table, so dropping the partial table
// and rerunning is safe (PDW treats step execution as restartable
// units). Relational segments that stream to the client cannot be
// replayed — rows may already have left the appliance.
func (o *Option) Idempotent() bool { return o.Move != nil }

// better reports whether a beats b under (DMS cost, tie cost).
func better(a, b *Option) bool {
	if a.DMSCost != b.DMSCost {
		return a.DMSCost < b.DMSCost
	}
	return a.TieCost < b.TieCost
}

// Visit walks the option tree pre-order.
func (o *Option) Visit(f func(*Option)) {
	f(o)
	for _, in := range o.Inputs {
		in.Visit(f)
	}
}

// CountMoves tallies data movement operations by kind.
func (o *Option) CountMoves() map[cost.MoveKind]int {
	out := map[cost.MoveKind]int{}
	o.Visit(func(n *Option) {
		if n.Move != nil {
			out[n.Move.Kind]++
		}
	})
	return out
}
