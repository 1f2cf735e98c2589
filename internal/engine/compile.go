package engine

// Node-side step compilation. A compute node compiles a step's template
// text once per plan and keeps the normalized tree in the step's
// node-compile slot (dsql.NodeTree), the way a SQL Server instance keeps
// the compiled plan of a statement it has already seen (paper §2.4). A
// later execution reuses the tree, with its own literal arguments filled
// into the slotted constants, when every rule below holds:
//
//   - the step's SQL is still the text Generate or Bind produced, so the
//     template is what it executes (dsql.Step.Template);
//   - the catalog epoch is the one the tree was compiled at;
//   - each slot's argument has the kind of the compile-time argument and,
//     for a string, parses as a date exactly when that one did — so every
//     comparison takes the coercion decision it took at compile time;
//   - at compile time every slotted constant survived normalization
//     holding exactly its bound value (normalize.Compile, which the plan
//     cache runs on the control node's template too; else the tree
//     depends on the literal values and the step compiles on every
//     execution).
//
// Isolation of concurrent runs is by name: trees read the plan's template
// temp-table names, which each run maps to its own storage names.

import (
	"pdwqo/internal/algebra"
	"pdwqo/internal/dsql"
	"pdwqo/internal/normalize"
	"pdwqo/internal/types"
)

// Outcomes of a step compile, as the step-compile span reports them.
const (
	compileHit     = "hit"           // a published tree, reused
	compileMiss    = "miss"          // compiled and published
	compilePerExec = "per-execution" // compiled for this execution alone
)

// compileStep returns the tree the nodes execute for step and how it was
// obtained.
func (r *run) compileStep(step *dsql.Step) (*algebra.Tree, string, error) {
	text, args, ok := step.Template()
	if !ok {
		tree, _, _, err := r.compile(step.SQL, nil)
		return tree, compilePerExec, err
	}
	epoch := r.a.Shell.Epoch()
	if nt := step.NodeTree(); nt != nil && nt.Epoch == epoch && argsFit(nt, args) {
		if len(nt.Slots) == 0 {
			return nt.Tree, compileHit, nil
		}
		return rebindTree(nt.Tree, args), compileHit, nil
	}
	tree, slots, exact, err := r.compile(text, args)
	if err != nil {
		return nil, "", err
	}
	if !exact {
		return tree, compilePerExec, nil
	}
	step.SetNodeTree(&dsql.NodeTree{Tree: tree, Epoch: epoch, Args: args, Slots: slots})
	return tree, compileMiss, nil
}

// compile parses, binds and normalizes step SQL against the run's catalog
// — the role of each node's local SQL instance compilation, the same
// compile the control node runs on a query (normalize.Compile) — binding
// the text's parameter markers to args. The tree is fully memoized.
func (r *run) compile(sql string, args []types.Value) (*algebra.Tree, []int, bool, error) {
	tree, slots, exact, err := normalize.Compile(r.session, sql, args, nil, 0)
	if err != nil {
		return nil, nil, false, err
	}
	algebra.Memoize(tree)
	return tree, slots, exact, nil
}

// argsFit reports whether args take, slot for slot, the binding decisions
// nt's compile-time arguments took: the same kind, and for strings the
// same outcome of date parsing (the binder's string-to-date coercion).
func argsFit(nt *dsql.NodeTree, args []types.Value) bool {
	for _, s := range nt.Slots {
		if s >= len(args) {
			return false
		}
		was, now := nt.Args[s], args[s]
		if was.Kind() != now.Kind() {
			return false
		}
		if was.Kind() == types.KindString && isDate(was.Str()) != isDate(now.Str()) {
			return false
		}
	}
	return true
}

func isDate(s string) bool {
	_, err := types.ParseDate(s)
	return err == nil
}

// rebindTree returns t with every slotted constant holding args' value.
// Only the nodes on a path from the root to a slotted constant are copied;
// copies keep their originals' memoized schema, which the new values
// cannot change (argsFit kept every kind).
func rebindTree(t *algebra.Tree, args []types.Value) *algebra.Tree {
	var kids []*algebra.Tree
	for i, c := range t.Children {
		if nc := rebindTree(c, args); nc != c {
			if kids == nil {
				kids = append([]*algebra.Tree(nil), t.Children...)
			}
			kids[i] = nc
		}
	}
	op := rebindOp(t.Op, args)
	if kids == nil && op == t.Op {
		return t
	}
	if kids == nil {
		kids = t.Children
	}
	return algebra.NewTreeSameSchema(t, op, kids...)
}

// rebindOp returns op itself when none of its scalars holds a slotted
// constant, else a copy whose scalars hold args' values.
func rebindOp(op algebra.Operator, args []types.Value) algebra.Operator {
	switch o := op.(type) {
	case *algebra.Select:
		if f := rebindScalar(o.Filter, args); f != o.Filter {
			c := *o
			c.Filter = f
			return &c
		}
	case *algebra.Join:
		if on := rebindScalar(o.On, args); on != o.On {
			c := *o
			c.On = on
			return &c
		}
	case *algebra.Project:
		var defs []algebra.ProjDef
		for i, d := range o.Defs {
			if e := rebindScalar(d.Expr, args); e != d.Expr {
				if defs == nil {
					defs = append([]algebra.ProjDef(nil), o.Defs...)
				}
				defs[i].Expr = e
			}
		}
		if defs != nil {
			c := *o
			c.Defs = defs
			return &c
		}
	case *algebra.GroupBy:
		var aggs []algebra.AggDef
		for i, a := range o.Aggs {
			if e := rebindScalar(a.Arg, args); e != a.Arg {
				if aggs == nil {
					aggs = append([]algebra.AggDef(nil), o.Aggs...)
				}
				aggs[i].Arg = e
			}
		}
		if aggs != nil {
			c := *o
			c.Aggs = aggs
			return &c
		}
	}
	return op
}

// rebindScalar returns e itself when it holds no slotted constant, else a
// rebuilt copy holding args' values.
func rebindScalar(e algebra.Scalar, args []types.Value) algebra.Scalar {
	if !hasSlotted(e) {
		return e
	}
	return algebra.RewriteScalar(e, func(x algebra.Scalar) algebra.Scalar {
		switch x := x.(type) {
		case *algebra.Const:
			if x.Param > 0 {
				return &algebra.Const{Val: algebra.BoundValue(args[x.Param-1], x.Val.Kind()), Param: x.Param}
			}
		case *algebra.Subquery:
			if in := rebindTree(x.Input, args); in != x.Input {
				c := *x
				c.Input = in
				return &c
			}
		}
		return nil
	})
}

// hasSlotted reports whether e holds a slotted constant, subquery inputs
// included.
func hasSlotted(e algebra.Scalar) bool {
	found := false
	algebra.VisitScalar(e, func(x algebra.Scalar) {
		switch x := x.(type) {
		case *algebra.Const:
			found = found || x.Param > 0
		case *algebra.Subquery:
			if !found {
				algebra.VisitSlotted(x.Input, func(*algebra.Const) { found = true })
			}
		}
	})
	return found
}
