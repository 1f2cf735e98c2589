package exec

import (
	"fmt"
	"sort"
	"strings"

	"pdwqo/internal/algebra"
	"pdwqo/internal/types"
)

// TableSource resolves a base-table scan: given the table name, it returns
// the locally stored rows in the table's full column order.
type TableSource func(name string) ([]types.Row, [](string), error)

// Relation is a materialized intermediate result.
type Relation struct {
	Cols []algebra.ColumnMeta
	Rows []types.Row
}

// Run executes a bound logical tree against the source one row at a time.
// It is the row engine: the oracle DB.ExecuteSerial runs and the
// vectorized engine's operator tests compare against; the nodes never run
// it. The tree must be subquery-free (normalized).
func Run(t *algebra.Tree, src TableSource) (*Relation, error) {
	switch op := t.Op.(type) {
	case *algebra.Get:
		return runGet(op, src)
	case *algebra.Values:
		rel := &Relation{Cols: op.Cols}
		for _, r := range op.Rows {
			rel.Rows = append(rel.Rows, types.Row(r))
		}
		return rel, nil
	case *algebra.Select:
		in, err := Run(t.Children[0], src)
		if err != nil {
			return nil, err
		}
		return runFilter(op, in)
	case *algebra.Project:
		in, err := Run(t.Children[0], src)
		if err != nil {
			return nil, err
		}
		return runProject(op, in, t.OutputCols())
	case *algebra.Join:
		l, err := Run(t.Children[0], src)
		if err != nil {
			return nil, err
		}
		r, err := Run(t.Children[1], src)
		if err != nil {
			return nil, err
		}
		return runJoin(op, l, r)
	case *algebra.GroupBy:
		in, err := Run(t.Children[0], src)
		if err != nil {
			return nil, err
		}
		return runGroupBy(op, in, t.OutputCols())
	case *algebra.Sort:
		in, err := Run(t.Children[0], src)
		if err != nil {
			return nil, err
		}
		return runSort(op, in)
	case *algebra.UnionAll:
		l, err := Run(t.Children[0], src)
		if err != nil {
			return nil, err
		}
		r, err := Run(t.Children[1], src)
		if err != nil {
			return nil, err
		}
		return &Relation{Cols: l.Cols, Rows: append(append([]types.Row{}, l.Rows...), r.Rows...)}, nil
	default:
		return nil, fmt.Errorf("exec: cannot execute %T", t.Op)
	}
}

func runGet(op *algebra.Get, src TableSource) (*Relation, error) {
	rows, names, err := src(op.Table.Name)
	if err != nil {
		return nil, err
	}
	// Map the (possibly pruned) Get columns onto stored positions.
	pos := make([]int, len(op.Cols))
	for i, c := range op.Cols {
		pos[i] = -1
		for j, n := range names {
			if strings.EqualFold(n, c.Name) {
				pos[i] = j
				break
			}
		}
		if pos[i] < 0 {
			return nil, fmt.Errorf("exec: column %q missing from stored %q", c.Name, op.Table.Name)
		}
	}
	out := &Relation{Cols: op.Cols, Rows: make([]types.Row, len(rows))}
	for ri, r := range rows {
		nr := make(types.Row, len(pos))
		for i, p := range pos {
			nr[i] = r[p]
		}
		out.Rows[ri] = nr
	}
	return out, nil
}

func runFilter(op *algebra.Select, in *Relation) (*Relation, error) {
	env := NewEnv(in.Cols)
	out := &Relation{Cols: in.Cols}
	for _, r := range in.Rows {
		env.Row = r
		v, err := Eval(op.Filter, env)
		if err != nil {
			return nil, err
		}
		keep, err := TruthyChecked(v)
		if err != nil {
			return nil, fmt.Errorf("exec: WHERE predicate: %w", err)
		}
		if keep {
			out.Rows = append(out.Rows, r)
		}
	}
	return out, nil
}

func runProject(op *algebra.Project, in *Relation, outCols []algebra.ColumnMeta) (*Relation, error) {
	env := NewEnv(in.Cols)
	out := &Relation{Cols: outCols, Rows: make([]types.Row, len(in.Rows))}
	for ri, r := range in.Rows {
		env.Row = r
		nr := make(types.Row, len(op.Defs))
		for i, d := range op.Defs {
			v, err := Eval(d.Expr, env)
			if err != nil {
				return nil, err
			}
			nr[i] = v
		}
		out.Rows[ri] = nr
	}
	return out, nil
}

// splitJoinCond separates equi-join column pairs from residual conjuncts.
// It depends only on the two input schemas, so the row and vectorized
// engines share one key-extraction policy (and therefore one hash-join
// eligibility decision).
func splitJoinCond(on algebra.Scalar, lCols, rCols []algebra.ColumnMeta) (lKeys, rKeys []int, residual []algebra.Scalar) {
	lIdx := map[algebra.ColumnID]int{}
	for i, c := range lCols {
		lIdx[c.ID] = i
	}
	rIdx := map[algebra.ColumnID]int{}
	for i, c := range rCols {
		rIdx[c.ID] = i
	}
	for _, conj := range algebra.Conjuncts(on) {
		if a, b, ok := algebra.EquiJoinSides(conj); ok {
			if li, lok := lIdx[a]; lok {
				if ri, rok := rIdx[b]; rok {
					lKeys = append(lKeys, li)
					rKeys = append(rKeys, ri)
					continue
				}
			}
			if li, lok := lIdx[b]; lok {
				if ri, rok := rIdx[a]; rok {
					lKeys = append(lKeys, li)
					rKeys = append(rKeys, ri)
					continue
				}
			}
		}
		residual = append(residual, conj)
	}
	return lKeys, rKeys, residual
}

func runJoin(op *algebra.Join, l, r *Relation) (*Relation, error) {
	outCols := joinOutCols(op, l.Cols, r.Cols)
	lKeys, rKeys, residual := splitJoinCond(op.On, l.Cols, r.Cols)
	res := algebra.AndAll(residual)
	if len(lKeys) > 0 {
		return hashJoin(op, l, r, lKeys, rKeys, res, outCols)
	}
	return loopJoin(op, l, r, op.On, outCols)
}

func joinOutCols(op *algebra.Join, lCols, rCols []algebra.ColumnMeta) []algebra.ColumnMeta {
	switch op.Kind {
	case algebra.JoinSemi, algebra.JoinAnti:
		return lCols
	default:
		out := make([]algebra.ColumnMeta, 0, len(lCols)+len(rCols))
		out = append(out, lCols...)
		out = append(out, rCols...)
		return out
	}
}

// keyOf extracts join key values; ok is false when any key is NULL (SQL
// equality never matches NULLs).
func keyOf(row types.Row, idx []int) (uint64, bool) {
	vals := make([]types.Value, len(idx))
	for i, p := range idx {
		if row[p].IsNull() {
			return 0, false
		}
		vals[i] = row[p]
	}
	return types.HashRowKey(vals), true
}

func keysEqual(a types.Row, ai []int, b types.Row, bi []int) bool {
	for i := range ai {
		av, bv := a[ai[i]], b[bi[i]]
		if av.IsNull() || bv.IsNull() {
			return false
		}
		if !types.Comparable(av.Kind(), bv.Kind()) || types.Compare(av, bv) != 0 {
			return false
		}
	}
	return true
}

func hashJoin(op *algebra.Join, l, r *Relation, lKeys, rKeys []int, residual algebra.Scalar, outCols []algebra.ColumnMeta) (*Relation, error) {
	build := map[uint64][]int{}
	for ri, row := range r.Rows {
		if k, ok := keyOf(row, rKeys); ok {
			build[k] = append(build[k], ri)
		}
	}
	out := &Relation{Cols: outCols}
	// Residual predicates see the concatenated (left, right) row even when
	// the join's output is left-only (semi/anti).
	pairCols := make([]algebra.ColumnMeta, 0, len(l.Cols)+len(r.Cols))
	pairCols = append(pairCols, l.Cols...)
	pairCols = append(pairCols, r.Cols...)
	env := NewEnv(pairCols)
	rightMatched := make([]bool, len(r.Rows))
	nullRight := make(types.Row, len(r.Cols))
	for i := range nullRight {
		nullRight[i] = types.Null
	}

	for _, lrow := range l.Rows {
		matched := false
		if k, ok := keyOf(lrow, lKeys); ok {
			for _, ri := range build[k] {
				rrow := r.Rows[ri]
				if !keysEqual(lrow, lKeys, rrow, rKeys) {
					continue
				}
				combined := append(append(types.Row{}, lrow...), rrow...)
				if residual != nil {
					env.Row = combined
					v, err := Eval(residual, env)
					if err != nil {
						return nil, err
					}
					ok, err := TruthyChecked(v)
					if err != nil {
						return nil, fmt.Errorf("exec: join predicate: %w", err)
					}
					if !ok {
						continue
					}
				}
				matched = true
				rightMatched[ri] = true
				switch op.Kind {
				case algebra.JoinSemi, algebra.JoinAnti:
					// membership only
				default:
					out.Rows = append(out.Rows, combined)
				}
				if op.Kind == algebra.JoinSemi {
					break
				}
			}
		}
		switch op.Kind {
		case algebra.JoinSemi:
			if matched {
				out.Rows = append(out.Rows, lrow)
			}
		case algebra.JoinAnti:
			if !matched {
				out.Rows = append(out.Rows, lrow)
			}
		case algebra.JoinLeftOuter, algebra.JoinFullOuter:
			if !matched {
				out.Rows = append(out.Rows, append(append(types.Row{}, lrow...), nullRight...))
			}
		}
	}
	if op.Kind == algebra.JoinFullOuter {
		nullLeft := make(types.Row, len(l.Cols))
		for i := range nullLeft {
			nullLeft[i] = types.Null
		}
		for ri, m := range rightMatched {
			if !m {
				out.Rows = append(out.Rows, append(append(types.Row{}, nullLeft...), r.Rows[ri]...))
			}
		}
	}
	return out, nil
}

func loopJoin(op *algebra.Join, l, r *Relation, on algebra.Scalar, outCols []algebra.ColumnMeta) (*Relation, error) {
	out := &Relation{Cols: outCols}
	pairCols := make([]algebra.ColumnMeta, 0, len(l.Cols)+len(r.Cols))
	pairCols = append(pairCols, l.Cols...)
	pairCols = append(pairCols, r.Cols...)
	env := NewEnv(pairCols)
	rightMatched := make([]bool, len(r.Rows))
	nullRight := make(types.Row, len(r.Cols))
	for i := range nullRight {
		nullRight[i] = types.Null
	}
	for _, lrow := range l.Rows {
		matched := false
		for ri, rrow := range r.Rows {
			combined := append(append(types.Row{}, lrow...), rrow...)
			if on != nil {
				env.Row = combined
				v, err := Eval(on, env)
				if err != nil {
					return nil, err
				}
				ok, err := TruthyChecked(v)
				if err != nil {
					return nil, fmt.Errorf("exec: join predicate: %w", err)
				}
				if !ok {
					continue
				}
			}
			matched = true
			rightMatched[ri] = true
			switch op.Kind {
			case algebra.JoinSemi, algebra.JoinAnti:
			default:
				out.Rows = append(out.Rows, combined)
			}
			if op.Kind == algebra.JoinSemi {
				break
			}
		}
		switch op.Kind {
		case algebra.JoinSemi:
			if matched {
				out.Rows = append(out.Rows, lrow)
			}
		case algebra.JoinAnti:
			if !matched {
				out.Rows = append(out.Rows, lrow)
			}
		case algebra.JoinLeftOuter, algebra.JoinFullOuter:
			if !matched {
				out.Rows = append(out.Rows, append(append(types.Row{}, lrow...), nullRight...))
			}
		}
	}
	if op.Kind == algebra.JoinFullOuter {
		nullLeft := make(types.Row, len(l.Cols))
		for i := range nullLeft {
			nullLeft[i] = types.Null
		}
		for ri, m := range rightMatched {
			if !m {
				out.Rows = append(out.Rows, append(append(types.Row{}, nullLeft...), r.Rows[ri]...))
			}
		}
	}
	return out, nil
}

// aggState accumulates one aggregate within one group. acc is SUM's
// running sum, or MIN's / MAX's extreme so far; COUNT uses count.
type aggState struct {
	def      *algebra.AggDef
	acc      types.Value
	count    int64
	distinct map[uint64]bool
}

func newAggState(def *algebra.AggDef) *aggState {
	s := initAggState(def)
	return &s
}

// initAggState is a fresh state by value, for callers that keep states
// in a slab.
func initAggState(def *algebra.AggDef) aggState {
	s := aggState{def: def, acc: types.Null}
	if def.Distinct {
		s.distinct = map[uint64]bool{}
	}
	return s
}

func (s *aggState) add(env *Env) error {
	if s.def.Arg == nil {
		// COUNT(*): every row counts.
		s.count++
		return nil
	}
	v, err := Eval(s.def.Arg, env)
	if err != nil {
		return err
	}
	return s.addValue(v)
}

// addValue folds one already-evaluated argument value into the state; the
// vectorized engine routes batch-evaluated arguments here so both engines
// share one accumulation semantics (NULL skip, DISTINCT hashing, SUM kind
// adoption, checked MIN/MAX comparison).
func (s *aggState) addValue(v types.Value) error {
	if v.IsNull() {
		return nil
	}
	if s.distinct != nil {
		h := types.Hash(v)
		if s.distinct[h] {
			return nil
		}
		s.distinct[h] = true
	}
	switch s.def.Func {
	case algebra.AggCount:
		s.count++
	case algebra.AggSum:
		if s.acc.IsNull() {
			s.acc = v
		} else {
			sum, err := types.Add(s.acc, v)
			if err != nil {
				return err
			}
			s.acc = sum
		}
	case algebra.AggMin:
		// MIN/MAX arguments can mix kinds (CASE branches of different
		// types), so the comparison is checked, not trusted.
		if s.acc.IsNull() {
			s.acc = v
		} else if c, err := types.CompareChecked(v, s.acc); err != nil {
			return fmt.Errorf("exec: MIN argument: %w", err)
		} else if c < 0 {
			s.acc = v
		}
	case algebra.AggMax:
		if s.acc.IsNull() {
			s.acc = v
		} else if c, err := types.CompareChecked(v, s.acc); err != nil {
			return fmt.Errorf("exec: MAX argument: %w", err)
		} else if c > 0 {
			s.acc = v
		}
	}
	return nil
}

func (s *aggState) result() types.Value {
	switch s.def.Func {
	case algebra.AggCount:
		return types.NewInt(s.count)
	case algebra.AggSum, algebra.AggMin, algebra.AggMax:
		return s.acc
	}
	return types.Null
}

func runGroupBy(op *algebra.GroupBy, in *Relation, outCols []algebra.ColumnMeta) (*Relation, error) {
	env := NewEnv(in.Cols)
	keyPos := make([]int, len(op.Keys))
	for i, k := range op.Keys {
		keyPos[i] = -1
		for j, c := range in.Cols {
			if c.ID == k {
				keyPos[i] = j
			}
		}
		if keyPos[i] < 0 {
			return nil, fmt.Errorf("exec: group key c%d missing", k)
		}
	}
	type group struct {
		keyVals types.Row
		aggs    []*aggState
	}
	groups := map[uint64][]*group{}
	var order []*group
	for _, r := range in.Rows {
		env.Row = r
		keyVals := make(types.Row, len(keyPos))
		for i, p := range keyPos {
			keyVals[i] = r[p]
		}
		h := types.HashRowKey(keyVals)
		var g *group
		for _, cand := range groups[h] {
			same := true
			for i := range keyVals {
				if !types.Equal(cand.keyVals[i], keyVals[i]) {
					same = false
					break
				}
			}
			if same {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{keyVals: keyVals}
			for i := range op.Aggs {
				g.aggs = append(g.aggs, newAggState(&op.Aggs[i]))
			}
			groups[h] = append(groups[h], g)
			order = append(order, g)
		}
		for _, a := range g.aggs {
			if err := a.add(env); err != nil {
				return nil, err
			}
		}
	}
	// A scalar aggregate over empty input yields one all-default row.
	if len(op.Keys) == 0 && len(order) == 0 {
		g := &group{}
		for i := range op.Aggs {
			g.aggs = append(g.aggs, newAggState(&op.Aggs[i]))
		}
		order = append(order, g)
	}
	out := &Relation{Cols: outCols}
	for _, g := range order {
		row := make(types.Row, 0, len(g.keyVals)+len(g.aggs))
		row = append(row, g.keyVals...)
		for _, a := range g.aggs {
			row = append(row, a.result())
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func runSort(op *algebra.Sort, in *Relation) (*Relation, error) {
	keys, err := sortMergeKeys(op.Keys, in.Cols)
	if err != nil {
		return nil, err
	}
	rows := append([]types.Row{}, in.Rows...)
	// Sort keys over user expressions can mix kinds across rows; the
	// checked compare collects the first mismatch and fails the sort
	// instead of panicking mid-comparison.
	if err := SortRows(rows, keys); err != nil {
		return nil, fmt.Errorf("exec: ORDER BY key: %w", err)
	}
	if op.Top > 0 && int64(len(rows)) > op.Top {
		rows = rows[:op.Top]
	}
	return &Relation{Cols: in.Cols, Rows: rows}, nil
}

// sortMergeKeys resolves a Sort's column IDs against the input schema
// into positional merge keys.
func sortMergeKeys(keys []algebra.SortKey, cols []algebra.ColumnMeta) ([]MergeKey, error) {
	out := make([]MergeKey, len(keys))
	for i, k := range keys {
		out[i] = MergeKey{Pos: -1, Desc: k.Desc}
		for j, c := range cols {
			if c.ID == k.ID {
				out[i].Pos = j
			}
		}
		if out[i].Pos < 0 {
			return nil, fmt.Errorf("exec: sort key c%d missing", k.ID)
		}
	}
	return out, nil
}

// MergeKey orders one sort column by row position; Desc flips the
// direction. It is the engine-wide sort-key currency: node-local ORDER
// BY, TOP-N, and the control node's final merge all reduce their key
// specs to []MergeKey so every path runs the same comparator — and
// therefore the same NULL placement on every node.
type MergeKey struct {
	Pos  int
	Desc bool
}

// CompareRowsChecked compares two rows under keys with the engine's NULL
// contract: types.CompareChecked sorts NULL before every non-NULL value,
// and Desc negates the comparison as a whole — so NULLs place FIRST on
// ascending keys and LAST on descending keys. It reports the first
// incomparable key pair instead of panicking.
func CompareRowsChecked(a, b types.Row, keys []MergeKey) (int, error) {
	return compareKeys(keys, func(pos int) (types.Value, types.Value) { return a[pos], b[pos] })
}

// compareKeys is CompareRowsChecked over a pair of rows however they are
// stored: pair returns the two rows' values at a column position.
func compareKeys(keys []MergeKey, pair func(pos int) (types.Value, types.Value)) (int, error) {
	for _, k := range keys {
		c, err := types.CompareChecked(pair(k.Pos))
		if err != nil {
			return 0, err
		}
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c, nil
		}
	}
	return 0, nil
}

// SortRows stable-sorts rows in place by merge keys; shared by the
// node-local ORDER BY/TOP-N paths and the control node's final merge.
// It reports the first incomparable key pair instead of panicking.
func SortRows(rows []types.Row, keys []MergeKey) error {
	perm := identity(len(rows))
	if err := sortPerm(perm, keys, func(row int32, pos int) types.Value { return rows[row][pos] }); err != nil {
		return err
	}
	sorted := make([]types.Row, len(rows))
	for i, r := range perm {
		sorted[i] = rows[r]
	}
	copy(rows, sorted)
	return nil
}

// identity is the permutation 0, 1, …, n-1.
func identity(n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}

// sortPerm stable-sorts a permutation of row indexes by merge keys,
// reading key values through at, and reports the first incomparable key
// pair. The columnar engine sorts positions, not rows; SortRows is this
// over a row slice.
func sortPerm(perm []int32, keys []MergeKey, at func(row int32, pos int) types.Value) error {
	var sortErr error
	sort.SliceStable(perm, func(i, j int) bool {
		c, err := compareKeys(keys, func(pos int) (types.Value, types.Value) {
			return at(perm[i], pos), at(perm[j], pos)
		})
		if err != nil {
			if sortErr == nil {
				sortErr = err
			}
			return false
		}
		return c < 0
	})
	return sortErr
}
