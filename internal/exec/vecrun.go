package exec

// Vectorized operator runtime: a pull-based pipeline of batch-producing
// operators over the typed columnar format in internal/vec. The operator
// set mirrors the row engine exactly — same output ordering contracts
// (filters preserve order, hash joins emit left order × build-insertion
// order, GroupBy emits first-seen groups, sorts are stable), same error
// texts, same aggregate results (aggState, or typed COUNT and float SUM
// slabs that reach exactly its results) — so its results are the row
// engine's byte for byte, and the row engine (Run) is its oracle. It is the
// only executor the nodes run. Columns are the currency of data movement:
// RunColumns hands DMS one batch, and RunVec / RunVecStats box the same
// stream into a row Relation for callers that want rows.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"pdwqo/internal/algebra"
	"pdwqo/internal/types"
	"pdwqo/internal/vec"
)

// ColSource resolves a base-table scan into the table's stored columns
// in full stored column order.
type ColSource func(name string) (*vec.Table, error)

// RunVec executes a bound logical tree with the vectorized engine.
func RunVec(t *algebra.Tree, src ColSource) (*Relation, error) {
	return RunVecStats(t, src, nil)
}

// RunVecStats executes like RunVec and tallies per-operator work into st
// (nil disables collection): operators evaluated, the rows each produced
// and the column batches it emitted.
func RunVecStats(t *algebra.Tree, src ColSource, st *Stats) (*Relation, error) {
	n, b, err := runVec(t, src, st)
	if err != nil {
		return nil, err
	}
	return &Relation{Cols: n.cols(), Rows: vec.AppendRows(nil, b)}, nil
}

// RunColumns executes like RunVecStats and returns the result as one
// batch, the form DMS routes and storage inserts. The rows are copied at
// most once on the way: an output held as one batch whole (a stored
// table, a group-by or sort result) is returned as it is, and one under a
// selection is gathered.
func RunColumns(t *algebra.Tree, src ColSource, st *Stats) (*vec.Batch, error) {
	_, b, err := runVec(t, src, st)
	return b, err
}

// runVec executes a tree and returns its pipeline and its output as one
// dense batch.
func runVec(t *algebra.Tree, src ColSource, st *Stats) (vecNode, *vec.Batch, error) {
	n, err := buildVec(t, src, st)
	if err != nil {
		return nil, nil, err
	}
	b, sel, err := drain(n)
	if err != nil {
		return nil, nil, err
	}
	if sel != nil {
		b = vec.Concat(len(b.Cols), []*vec.Batch{b}, [][]int32{sel})
	}
	return n, b, nil
}

// drain pulls an operator's whole output stream as one batch under a
// selection (nil: every row). It asks for the output as one batch first
// (whole): a stored table's scan, a group-by or sort result, or a
// rename-only projection or a filter over one of these hands that batch
// on under its selection, and no row is copied. Otherwise it pulls the
// stream batch by batch, copying each selection (its producer reuses the
// buffer), and materializes the selected rows once at their exact size
// (vec.Concat, which returns a lone whole batch as it is).
func drain(n vecNode) (*vec.Batch, []int32, error) {
	b, sel, ok, err := n.whole()
	switch {
	case err != nil:
		return nil, nil, err
	case ok && selLen(sel, b) > 0:
		return b, sel, nil
	case ok:
		return vec.Concat(len(n.cols()), nil, nil), nil, nil
	}
	var parts []*vec.Batch
	var sels [][]int32
	for {
		b, sel, err := n.next()
		if err != nil {
			return nil, nil, err
		}
		if b == nil {
			return vec.Concat(len(n.cols()), parts, sels), nil, nil
		}
		if sel != nil && sels == nil {
			sels = make([][]int32, len(parts), cap(parts)+1)
		}
		parts = append(parts, b)
		if sels != nil {
			sels = append(sels, slices.Clone(sel))
		}
	}
}

// vecNode is one pull-based operator: next returns the following batch
// and its selection, or a nil batch at end of stream. A selection lists
// the batch positions that are rows of the stream, ascending; nil means
// every position is. It stays valid until the node's next call, so a
// consumer that keeps a selection longer copies it. Batches are never
// modified once emitted, so a consumer may keep one as it is.
//
// whole, called before any next, returns the node's entire output as one
// batch under a selection the caller then owns, when the node already
// holds it so; ok false means it does not, and the stream is untouched.
type vecNode interface {
	cols() []algebra.ColumnMeta
	next() (*vec.Batch, []int32, error)
	whole() (b *vec.Batch, sel []int32, ok bool, err error)
}

// statNode wraps an operator with work tallying: rows and batches are
// accumulated as they stream past and recorded once at end of stream, so
// a completed operator is counted once with every row it produced (an
// errored pipeline records nothing; the engine discards the attempt's
// stats anyway).
type statNode struct {
	inner   vecNode
	st      *Stats
	op      algebra.Operator
	rows    int64
	batches int64
	done    bool
}

func (s *statNode) cols() []algebra.ColumnMeta { return s.inner.cols() }

func (s *statNode) next() (*vec.Batch, []int32, error) {
	b, sel, err := s.inner.next()
	if err != nil {
		return nil, nil, err
	}
	if b == nil {
		if !s.done {
			s.done = true
			s.st.recordCounts(s.op, s.rows, s.batches)
		}
		return nil, nil, nil
	}
	s.rows += int64(selLen(sel, b))
	s.batches++
	return b, sel, nil
}

// whole records a whole hand-off as one batch (none when it is empty).
func (s *statNode) whole() (*vec.Batch, []int32, bool, error) {
	b, sel, ok, err := s.inner.whole()
	if err != nil || !ok {
		return nil, nil, false, err
	}
	if s.rows = int64(selLen(sel, b)); s.rows > 0 {
		s.batches = 1
	}
	s.done = true
	s.st.recordCounts(s.op, s.rows, s.batches)
	return b, sel, true, nil
}

// buildVec compiles a bound tree into an operator pipeline.
func buildVec(t *algebra.Tree, src ColSource, st *Stats) (vecNode, error) {
	var n vecNode
	switch op := t.Op.(type) {
	case *algebra.Get:
		n = &vecScan{op: op, src: src}
	case *algebra.Values:
		n = &vecValues{op: op}
	case *algebra.Select:
		in, err := buildVec(t.Children[0], src, st)
		if err != nil {
			return nil, err
		}
		n = &vecFilter{op: op, in: in, ve: newVecEnv(in.cols())}
	case *algebra.Project:
		in, err := buildVec(t.Children[0], src, st)
		if err != nil {
			return nil, err
		}
		n = newVecProject(op, in, t.OutputCols())
	case *algebra.Join:
		l, err := buildVec(t.Children[0], src, st)
		if err != nil {
			return nil, err
		}
		r, err := buildVec(t.Children[1], src, st)
		if err != nil {
			return nil, err
		}
		n = newVecJoin(op, l, r)
	case *algebra.GroupBy:
		in, err := buildVec(t.Children[0], src, st)
		if err != nil {
			return nil, err
		}
		n = &vecGroup{op: op, in: in, out: t.OutputCols(), ve: newVecEnv(in.cols())}
	case *algebra.Sort:
		in, err := buildVec(t.Children[0], src, st)
		if err != nil {
			return nil, err
		}
		n = &vecSort{op: op, in: in}
	case *algebra.UnionAll:
		l, err := buildVec(t.Children[0], src, st)
		if err != nil {
			return nil, err
		}
		r, err := buildVec(t.Children[1], src, st)
		if err != nil {
			return nil, err
		}
		n = &vecUnion{l: l, r: r}
	default:
		return nil, fmt.Errorf("exec: cannot execute %T", t.Op)
	}
	if st != nil {
		n = &statNode{inner: n, st: st, op: t.Op}
	}
	return n, nil
}

// vecScan windows batches out of a table's stored columns: BatchSize is
// a multiple of 64, so every window is a zero-copy bitmap-aligned slice.
type vecScan struct {
	op  *algebra.Get
	src ColSource
	res *windows // the stored vectors in (possibly pruned) op.Cols order
}

func (s *vecScan) cols() []algebra.ColumnMeta { return s.op.Cols }

func (s *vecScan) next() (*vec.Batch, []int32, error) {
	if s.res == nil {
		b, err := s.table()
		if err != nil {
			return nil, nil, err
		}
		s.res = &windows{b: b}
	}
	return s.res.next(), nil, nil
}

func (s *vecScan) whole() (*vec.Batch, []int32, bool, error) {
	b, err := s.table()
	return b, nil, err == nil, err
}

// table resolves the stored columns the scan reads, sharing their
// storage.
func (s *vecScan) table() (*vec.Batch, error) {
	t, err := s.src(s.op.Table.Name)
	if err != nil {
		return nil, err
	}
	b := &vec.Batch{N: t.N, Cols: make([]*vec.Vec, len(s.op.Cols))}
	for i, c := range s.op.Cols {
		found := -1
		for j, name := range t.Names {
			if strings.EqualFold(name, c.Name) {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("exec: column %q missing from stored %q", c.Name, s.op.Table.Name)
		}
		b.Cols[i] = t.Cols[found]
	}
	return b, nil
}

// vecValues emits a literal relation in BatchSize chunks.
type vecValues struct {
	op  *algebra.Values
	res *windows
}

func (v *vecValues) cols() []algebra.ColumnMeta { return v.op.Cols }

func (v *vecValues) next() (*vec.Batch, []int32, error) {
	if v.res == nil {
		rows := make([]types.Row, len(v.op.Rows))
		for i, r := range v.op.Rows {
			rows[i] = types.Row(r)
		}
		v.res = &windows{b: vec.BatchFromRows(len(v.op.Cols), rows)}
	}
	return v.res.next(), nil, nil
}

func (v *vecValues) whole() (*vec.Batch, []int32, bool, error) { return nil, nil, false, nil }

// vecFilter narrows each input batch's selection to the rows the
// predicate keeps (trueRows: conjunct by conjunct, in place over the
// payloads) and hands the batch on under that selection: it copies no
// column, and its consumer reads only the rows and columns it needs.
// Batches the predicate keeps whole pass through; batches it empties are
// skipped, not emitted.
type vecFilter struct {
	op *algebra.Select
	in vecNode
	ve *vecEnv
}

func (f *vecFilter) cols() []algebra.ColumnMeta { return f.in.cols() }

func (f *vecFilter) next() (*vec.Batch, []int32, error) {
	for {
		b, sel, err := f.in.next()
		if err != nil || b == nil {
			return nil, nil, err
		}
		f.ve.reset()
		keep, err := trueRows(f.op.Filter, f.ve, b, sel, "WHERE predicate")
		switch {
		case err != nil:
			return nil, nil, err
		case len(keep) == b.N:
			return b, nil, nil
		case len(keep) > 0:
			return b, keep, nil
		}
	}
}

// whole narrows a whole input's selection window by window, over the
// windows a stream of it would carry, so the predicate runs on exactly
// the batches next would give it. The input's selection, which the
// filter owns, is narrowed in place.
func (f *vecFilter) whole() (*vec.Batch, []int32, bool, error) {
	b, sel, ok, err := f.in.whole()
	if err != nil || !ok {
		return nil, nil, false, err
	}
	out := sel[:0:len(sel)]
	var local []int32
	for lo, k := 0, 0; lo < b.N; lo += vec.BatchSize {
		hi := min(lo+vec.BatchSize, b.N)
		var wsel []int32 // the window's selected rows, rebased to it
		if sel != nil {
			local = local[:0]
			for ; k < len(sel) && int(sel[k]) < hi; k++ {
				local = append(local, sel[k]-int32(lo))
			}
			if len(local) == 0 {
				continue
			}
			if len(local) < hi-lo {
				wsel = local
			}
		}
		f.ve.reset()
		keep, err := trueRows(f.op.Filter, f.ve, window(b, lo), wsel, "WHERE predicate")
		if err != nil {
			return nil, nil, false, err
		}
		if sel == nil && lo == 0 {
			// The first window's rows are positions in b already: the
			// filter keeps trueRows' buffer and appends the others to it,
			// grown once for the rows the other windows yield at the
			// first one's rate, and one window more.
			out, f.ve.out = keep, nil
			if b.N > vec.BatchSize {
				want := min(len(keep)*(b.N/vec.BatchSize+1)+vec.BatchSize, b.N)
				out = slices.Grow(out, want-len(out))
			}
			continue
		}
		for _, p := range keep {
			out = append(out, p+int32(lo))
		}
	}
	if len(out) == b.N {
		out = nil
	}
	return b, out, true, nil
}

// vecProject computes each projection definition as one vector per batch,
// under the input's selection, so its output is dense. A rename-only
// projection — every definition a column of its input, the DSQL
// derived-table shape `SELECT T1.[x] AS c1 …` — copies nothing: it hands
// its input's vectors on, in its own order, under the input's selection.
type vecProject struct {
	op     *algebra.Project
	in     vecNode
	out    []algebra.ColumnMeta
	ve     *vecEnv
	rename bool // every definition is a column of the input
}

func newVecProject(op *algebra.Project, in vecNode, out []algebra.ColumnMeta) *vecProject {
	p := &vecProject{op: op, in: in, out: out, ve: newVecEnv(in.cols())}
	for _, d := range op.Defs {
		c, ok := d.Expr.(*algebra.ColRef)
		if !ok {
			return p
		}
		if _, ok := p.ve.idx[c.ID]; !ok {
			return p // evaluation reports the missing column
		}
	}
	p.rename = true
	return p
}

func (p *vecProject) cols() []algebra.ColumnMeta { return p.out }

func (p *vecProject) next() (*vec.Batch, []int32, error) {
	b, sel, err := p.in.next()
	if err != nil || b == nil {
		return nil, nil, err
	}
	if p.rename {
		return p.renamed(b), sel, nil
	}
	p.ve.reset()
	nb := &vec.Batch{N: selLen(sel, b), Cols: make([]*vec.Vec, len(p.op.Defs))}
	for i, d := range p.op.Defs {
		v, err := evalVec(d.Expr, p.ve, b, sel)
		if err != nil {
			return nil, nil, err
		}
		nb.Cols[i] = v
	}
	return nb, nil, nil
}

func (p *vecProject) whole() (*vec.Batch, []int32, bool, error) {
	if !p.rename {
		return nil, nil, false, nil
	}
	b, sel, ok, err := p.in.whole()
	if err != nil || !ok {
		return nil, nil, false, err
	}
	return p.renamed(b), sel, true, nil
}

// renamed is a rename-only projection of b: b's vectors, in the
// definitions' order.
func (p *vecProject) renamed(b *vec.Batch) *vec.Batch {
	nb := &vec.Batch{N: b.N, Cols: make([]*vec.Vec, len(p.op.Defs))}
	for i, d := range p.op.Defs {
		nb.Cols[i] = b.Cols[p.ve.idx[d.Expr.(*algebra.ColRef).ID]]
	}
	return nb
}

// vecJoin joins batch streams. The right (build) side is drained into one
// batch under a selection (drain): a stored table, a group-by or sort
// result, or a filter or rename-only projection over one stays in place,
// and any other input is concatenated once. Build row i is that batch's
// row at pos(rsel, i). Equi-key joins probe a hash table built over the
// build rows, other joins fall back to a per-left-row nested loop over
// them; either way a candidate pair names its build row by its position
// in the batch. A probe walks the left batch's selection and writes
// candidate pairs into the join's own buffers, reused batch after batch:
// emit gathers the output columns from them, and filterPairs narrows them
// in place. Output order matches the row engine: left order × bucket
// insertion (= right row) order, with outer padding and full-outer
// unmatched-right emission in right order at the end.
type vecJoin struct {
	op       *algebra.Join
	left     vecNode
	right    vecNode
	outCols  []algebra.ColumnMeta
	pairCols []algebra.ColumnMeta
	lWidth   int
	useHash  bool
	lKeys    []int // the equi-pairs' probe columns, table keys first
	rKeys    []int // the equi-pairs' build columns, in lKeys' order
	nKeys    int   // the table keys are the first nKeys pairs
	residual algebra.Scalar

	// The hash table is a chain layout: an idTable maps each key to its
	// first build row and chainNext threads the rest, so building
	// allocates flat arrays and nothing per key. Chains are threaded in
	// ascending row order, preserving the bucket-insertion output order
	// contract; chainNext is allocated at the first key that repeats and
	// stays nil when every key is unique. A single typed-INT table key is
	// its own table key, read in place from rt's payloads, or from a copy
	// of the selected ones when rt is under a selection (byInt: ints over
	// intKeys; bucket = equality). Any other table key set keys on the
	// build rows' key hashes (hashed over rowHashes), and the probe
	// confirms candidate pairs on the hashed keys with keepEqual. Pairs
	// past nKeys (confirm-only: see tableKeys) are confirmed the same way
	// on either path.
	init         bool
	rt           *vec.Batch
	rsel         []int32 // build row i is rt's row at pos(rsel, i); nil = all of rt
	byInt        bool
	ints         idTable[int64]
	intKeys      []int64
	hashed       idTable[uint64]
	rowHashes    []uint64
	chainNext    []int32
	rightMatched []bool
	pairVE       *vecEnv
	reads        []int      // the pair columns the predicate reads
	pb           *vec.Batch // those columns, as scratch
	hs           []uint64   // probe-side key hash scratch
	pl, pr       []int32    // candidate pairs: left positions, right rows
	cl, cr       []int32    // one left row's nested-loop candidates
	ls, rs       []int32    // emit's output selections

	leftDone bool
	tailDone bool
}

func newVecJoin(op *algebra.Join, l, r vecNode) *vecJoin {
	lCols, rCols := l.cols(), r.cols()
	j := &vecJoin{
		op:      op,
		left:    l,
		right:   r,
		outCols: joinOutCols(op, lCols, rCols),
		lWidth:  len(lCols),
	}
	j.pairCols = make([]algebra.ColumnMeta, 0, len(lCols)+len(rCols))
	j.pairCols = append(j.pairCols, lCols...)
	j.pairCols = append(j.pairCols, rCols...)
	lKeys, rKeys, residual := splitJoinCond(op.On, lCols, rCols)
	if len(lKeys) > 0 {
		j.useHash = true
		j.lKeys, j.rKeys = lKeys, rKeys
		j.residual = algebra.AndAll(residual)
	}
	return j
}

func (j *vecJoin) cols() []algebra.ColumnMeta { return j.outCols }

func (j *vecJoin) whole() (*vec.Batch, []int32, bool, error) { return nil, nil, false, nil }

func (j *vecJoin) next() (*vec.Batch, []int32, error) {
	if !j.init {
		if err := j.buildRight(); err != nil {
			return nil, nil, err
		}
		j.init = true
	}
	for !j.leftDone {
		lb, sel, err := j.left.next()
		if err != nil {
			return nil, nil, err
		}
		if lb == nil {
			j.leftDone = true
			break
		}
		ob, err := j.joinBatch(lb, sel)
		if err != nil {
			return nil, nil, err
		}
		if ob != nil && ob.N > 0 {
			return ob, nil, nil
		}
	}
	if j.op.Kind == algebra.JoinFullOuter && !j.tailDone {
		j.tailDone = true
		if ob := j.unmatchedRight(); ob != nil && ob.N > 0 {
			return ob, nil, nil
		}
	}
	return nil, nil, nil
}

// buildRight drains the build side — keeping a lone part in place under
// its selection, concatenating several once at their exact size
// (vec.Concat) — and, for equi-key joins, picks the table keys
// (tableKeys) and builds a hash table over the build rows whose key
// columns hold no NULL (SQL equality never matches NULLs, so NULL-keyed
// rows stay out of the table — they still surface through full-outer
// unmatched emission). The table is sized to an estimate of the distinct
// keys (distinctKeys) and grows past it if need be. The table and its
// chains hold build rows by their index in the selection; a probe's pairs
// carry their positions in rt.
func (j *vecJoin) buildRight() error {
	var err error
	if j.rt, j.rsel, err = drain(j.right); err != nil {
		return err
	}
	if j.op.Kind == algebra.JoinFullOuter {
		j.rightMatched = make([]bool, j.rt.N)
	}
	if !j.useHash {
		return nil
	}
	intCol := func(c int) bool {
		v := j.rt.Cols[c]
		return !v.Mixed && v.Kind == types.KindInt
	}
	j.lKeys, j.rKeys, j.nKeys = tableKeys(j.lKeys, j.rKeys, intCol)
	n := selLen(j.rsel, j.rt)
	nulls := keyNulls(j.rt, j.rKeys)
	// Single BIGINT table key over a typed build column: the table keys on
	// the int64 payload itself, so bucket membership IS equality on that
	// pair. Numeric cross-kind probes (a FLOAT that equals an integer)
	// convert with an exactness guard, replicating types.Compare's
	// float-coerced equality. Rows insert in descending order so each
	// chain reads out ascending.
	if j.nKeys == 1 && intCol(j.rKeys[0]) {
		kv := j.rt.Cols[j.rKeys[0]]
		j.byInt, j.intKeys = true, kv.I64[:n]
		if j.rsel != nil {
			// The table reads build row i's key at intKeys[i].
			j.intKeys = make([]int64, n)
			for i, ri := range j.rsel {
				j.intKeys[i] = kv.I64[ri]
			}
		}
		j.ints = newIDTable[int64](distinctKeys(j.intKeys, nulls, j.rsel))
		for i := n - 1; i >= 0; i-- {
			if !bitSet(nulls, pos(j.rsel, i)) {
				j.link(i, j.ints.insert(j.intKeys, int32(i)))
			}
		}
		return nil
	}
	j.rowHashes = keyHashes(j.rt, j.rsel, j.rKeys[:j.nKeys], nil)
	j.hashed = newIDTable[uint64](distinctKeys(j.rowHashes, nulls, j.rsel))
	for i := n - 1; i >= 0; i-- {
		if !bitSet(nulls, pos(j.rsel, i)) {
			j.link(i, j.hashed.insert(j.rowHashes, int32(i)))
		}
	}
	return nil
}

// tableKeys orders a hash join's equi-pairs (lKeys[i] = rKeys[i]) for its
// build side, whose typed INT columns intCol reports. A pair identical to
// an earlier one is dropped. The first pair for each probe column and for
// each build column is a table key, hashed on both sides (or, alone over a
// typed INT build column, the INT table key itself); a pair whose probe
// or build column an earlier table key already holds is confirm-only: it
// is checked on the probe's candidate pairs with keepEqual, as the hashed
// keys are, and never hashed. Where that leaves a single table key over a
// build column that is not typed INT, the first confirm-only pair over a
// typed INT build column takes its place. The table keys come first in
// the returned pairs; n counts them. A lone pair is returned as it is.
func tableKeys(lKeys, rKeys []int, intCol func(int) bool) (l, r []int, n int) {
	if len(lKeys) == 1 {
		return lKeys, rKeys, 1
	}
	held := func(ls, rs []int, a, b int) bool {
		for k := range ls {
			if ls[k] == a && rs[k] == b {
				return true
			}
		}
		return false
	}
	var cl, cr []int // the confirm-only pairs
	for i, a := range lKeys {
		b := rKeys[i]
		switch {
		case held(l, r, a, b) || held(cl, cr, a, b):
		case slices.Contains(l, a) || slices.Contains(r, b):
			cl, cr = append(cl, a), append(cr, b)
		default:
			l, r = append(l, a), append(r, b)
		}
	}
	if len(l) == 1 && !intCol(r[0]) {
		if i := slices.IndexFunc(cr, intCol); i >= 0 {
			l[0], cl[i] = cl[i], l[0]
			r[0], cr[i] = cr[i], r[0]
		}
	}
	return append(l, cl...), append(r, cr...), len(l)
}

// distinctKeys estimates how many distinct keys the build rows outside the
// NULL bitmap carry, keys[i] being build row i's (at pos(rsel, i)), by
// linear counting: each key sets one bit, picked by a mix of the key, in
// a bitmap of m ≥ len(keys) bits, and m·ln(m / zero bits) estimates the
// distinct count. Two standard errors of the estimate are added, and the
// result never exceeds the row count; an idTable sized to it rarely grows.
func distinctKeys[K int64 | uint64](keys []K, nulls []uint64, rsel []int32) int {
	n := len(keys)
	if n <= 8 { // newIDTable's smallest table holds 8 keys
		return n
	}
	lg := uint(6)
	for 1<<lg < n {
		lg++
	}
	m := 1 << lg
	seen := make([]uint64, m>>6)
	for i, k := range keys {
		if !bitSet(nulls, pos(rsel, i)) {
			h := mix64(uint64(k)) >> (64 - lg)
			seen[h>>6] |= 1 << (h & 63)
		}
	}
	zero := m
	for _, w := range seen {
		zero -= bits.OnesCount64(w)
	}
	if zero == 0 {
		return n
	}
	d := float64(m) * math.Log(float64(m)/float64(zero))
	t := d / float64(m)
	return min(n, int(d+2*math.Sqrt(float64(m)*(math.Exp(t)-t-1)))+1)
}

// mix64 is a 64-bit finalizer (MurmurHash3's fmix64): every output bit
// depends on every input bit, so sequential and strided keys set bits as
// random ones would, which linear counting assumes.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// link makes prev, the row an insert displaced (-1 for a new key), build
// row i's successor in its chain. chainNext is allocated at the first key
// that repeats, every row's successor -1 until set.
func (j *vecJoin) link(i int, prev int32) {
	if prev < 0 {
		return
	}
	if j.chainNext == nil {
		j.chainNext = make([]int32, selLen(j.rsel, j.rt))
		for k := range j.chainNext {
			j.chainNext[k] = -1
		}
	}
	j.chainNext[i] = prev
}

// chained returns build row ri's successor in its chain, or -1.
func (j *vecJoin) chained(ri int32) int32 {
	if j.chainNext == nil {
		return -1
	}
	return j.chainNext[ri]
}

// keyHashes folds a batch's key columns, column by column, into one hash
// per selected row (types.Hash's encoding; a single key column gives
// types.Hash itself). Equal keys hash equally, INT and FLOAT alike, so the
// hash buckets and the confirming comparison agree. A single typed-INT key
// is never hashed — a join or a group-by keys its idTable on the payload —
// so this serves every other key set. scratch is reused when it is large
// enough.
func keyHashes(b *vec.Batch, sel []int32, keys []int, scratch []uint64) []uint64 {
	n := selLen(sel, b)
	hs := scratch
	if cap(hs) < n {
		hs = make([]uint64, n)
	}
	hs = hs[:n]
	for i := range hs {
		hs[i] = types.HashSeed
	}
	for _, k := range keys {
		b.Cols[k].FoldHash(hs, sel)
	}
	return hs
}

// keyNulls ORs the key columns' NULL bitmaps: a set bit marks a row with a
// NULL key, which equality never matches. nil means no NULL key. A lone
// column's bitmap is returned as it is, to be read, not written.
func keyNulls(b *vec.Batch, keys []int) []uint64 {
	var out []uint64
	owned := false
	for i, k := range keys {
		nb := b.Cols[k].Nulls
		switch {
		case nb == nil || slices.Contains(keys[:i], k):
			continue
		case out == nil:
			out = nb
			continue
		case !owned:
			own := make([]uint64, (b.N+63)>>6)
			copy(own, out)
			out, owned = own, true
		}
		for w := 0; w < len(out) && w < len(nb); w++ {
			out[w] |= nb[w]
		}
	}
	return out
}

// bitSet reads bit i of a bitmap that may be short or nil.
func bitSet(bm []uint64, i int) bool {
	w := i >> 6
	return w < len(bm) && bm[w]&(1<<(uint(i)&63)) != 0
}

// keepEqual narrows candidate (left, right) pairs to those whose values in
// one key column pair are equal as join keys: equal under types.Compare,
// with a NaN equal to a NaN and to nothing else, as the hash buckets have
// it (Compare alone finds a NaN equal to every number). Typed payloads are
// compared directly, kind pairs without a typed rule box. Candidates never
// hold a NULL key. The pairs are filtered in place.
func keepEqual(a, b *vec.Vec, pl, pr []int32) ([]int32, []int32) {
	out := 0
	keep := func(i int, eq bool) {
		if eq {
			pl[out], pr[out] = pl[i], pr[i]
			out++
		}
	}
	typed := !a.Mixed && !b.Mixed
	switch {
	case typed && a.Kind == b.Kind && i64Typed(a):
		for i := range pl {
			keep(i, a.I64[pl[i]] == b.I64[pr[i]])
		}
	case typed && a.Kind == types.KindString && b.Kind == types.KindString:
		for i := range pl {
			keep(i, a.Str[pl[i]] == b.Str[pr[i]])
		}
	case typed && a.Kind.Numeric() && b.Kind.Numeric():
		// Float-coerced, as types.Compare is.
		for i := range pl {
			x, y := numAt(a, pl[i]), numAt(b, pr[i])
			keep(i, x == y || x != x && y != y)
		}
	default:
		for i := range pl {
			x, y := a.At(int(pl[i])), b.At(int(pr[i]))
			keep(i, types.Comparable(x.Kind(), y.Kind()) && types.Compare(x, y) == 0 && isNaN(x) == isNaN(y))
		}
	}
	return pl[:out], pr[:out]
}

// isNaN reports whether v is a FLOAT NaN.
func isNaN(v types.Value) bool { return v.Kind() == types.KindFloat && math.IsNaN(v.Float()) }

// numAt reads a typed numeric vector's row as a float64.
func numAt(v *vec.Vec, i int32) float64 {
	if v.Kind == types.KindFloat {
		return v.F64[i]
	}
	return float64(v.I64[i])
}

// idTable is an open-addressed (linear probing) hash table from a 64-bit
// key to the newest id carrying it: a join's build row, or a group. A slot
// holds only id+1 (0 = empty, so a fresh table needs no fill pass); the
// key of an id is read from a slice the caller owns and passes in — a
// join's build-side INT payloads or row hashes, a group-by's group
// payloads or group hashes — so the table keeps no copy of it. Older ids
// with the same key are the caller's to chain.
type idTable[K int64 | uint64] struct {
	slots []int32
	shift uint
	used  int
}

// newIDTable sizes a table for n keys at load ≤ ½; insert doubles it
// beyond that.
func newIDTable[K int64 | uint64](n int) idTable[K] {
	sz, lg := 16, uint(4)
	for sz < 2*n {
		sz <<= 1
		lg++
	}
	return idTable[K]{slots: make([]int32, sz), shift: 64 - lg}
}

// fibMul spreads keys across the high bits (Fibonacci hashing), which
// linear probing then shifts down into a slot index.
const fibMul = 0x9E3779B97F4A7C15

func (t *idTable[K]) home(k K) int { return int((uint64(k) * fibMul) >> t.shift) }

// find returns the newest id whose key is k, or -1.
func (t *idTable[K]) find(keys []K, k K) int32 {
	for i := t.home(k); ; i = (i + 1) & (len(t.slots) - 1) {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if keys[s-1] == k {
			return s - 1
		}
	}
}

// insert makes id the newest id with key keys[id] and returns the id it
// displaces, or -1 when the key is new.
func (t *idTable[K]) insert(keys []K, id int32) int32 {
	if 2*(t.used+1) > len(t.slots) {
		t.grow(keys)
	}
	k := keys[id]
	i := t.home(k)
	for ; t.slots[i] != 0; i = (i + 1) & (len(t.slots) - 1) {
		if prev := t.slots[i] - 1; keys[prev] == k {
			t.slots[i] = id + 1
			return prev
		}
	}
	t.slots[i] = id + 1
	t.used++
	return -1
}

// grow doubles the table, re-inserting each key's newest id.
func (t *idTable[K]) grow(keys []K) {
	old := t.slots
	t.slots, t.shift = make([]int32, 2*len(old)), t.shift-1
	for _, s := range old {
		if s != 0 {
			i := t.home(keys[s-1])
			for t.slots[i] != 0 {
				i = (i + 1) & (len(t.slots) - 1)
			}
			t.slots[i] = s
		}
	}
}

// intKeyFromFloat maps a FLOAT probe value onto the typed-INT build key
// domain: only an exactly-integral float inside the int64 range can
// equal a BIGINT under types.Compare's float coercion.
func intKeyFromFloat(f float64) (int64, bool) {
	if f != float64(int64(f)) || f < -9.2233720368547758e18 || f >= 9.2233720368547758e18 {
		return 0, false
	}
	return int64(f), true
}

// probeInt probes the typed-INT build table for one left batch's
// selected rows, appending the candidate pairs to pl, pr, and confirms
// them on the confirm-only pairs.
func (j *vecJoin) probeInt(lb *vec.Batch, sel, pl, pr []int32) ([]int32, []int32) {
	kv := lb.Cols[j.lKeys[0]]
	if !kv.Mixed && kv.Kind != types.KindInt && kv.Kind != types.KindFloat {
		// DATE/BIT/STRING/all-NULL probes are never comparable with a
		// BIGINT build key, so nothing matches.
		return pl, pr
	}
	nulls := keyNulls(lb, j.lKeys)
	for i, n := 0, selLen(sel, lb); i < n; i++ {
		li := pos(sel, i)
		var k int64
		switch {
		case bitSet(nulls, li):
			continue
		case kv.Mixed:
			v := kv.At(li)
			switch v.Kind() {
			case types.KindInt:
				k = v.Int()
			case types.KindFloat:
				var ok bool
				if k, ok = intKeyFromFloat(v.Float()); !ok {
					continue
				}
			default:
				continue
			}
		case kv.Kind == types.KindInt:
			k = kv.I64[li]
		default:
			var ok bool
			if k, ok = intKeyFromFloat(kv.F64[li]); !ok {
				continue
			}
		}
		for ri := j.ints.find(j.intKeys, k); ri >= 0; ri = j.chained(ri) {
			pl = append(pl, int32(li))
			pr = append(pr, int32(pos(j.rsel, int(ri))))
		}
	}
	return j.confirm(lb, 1, pl, pr)
}

// probeHashed probes the key-hash table for one left batch's selected
// rows: table-key hashes fold column-wise, every chain a hash reaches
// yields candidate pairs, and the candidates are confirmed pair by pair,
// table keys and confirm-only pairs alike.
func (j *vecJoin) probeHashed(lb *vec.Batch, sel, pl, pr []int32) ([]int32, []int32) {
	j.hs = keyHashes(lb, sel, j.lKeys[:j.nKeys], j.hs)
	nulls := keyNulls(lb, j.lKeys)
	for i, h := range j.hs {
		li := pos(sel, i)
		if bitSet(nulls, li) {
			continue
		}
		for ri := j.hashed.find(j.rowHashes, h); ri >= 0; ri = j.chained(ri) {
			pl = append(pl, int32(li))
			pr = append(pr, int32(pos(j.rsel, int(ri))))
		}
	}
	return j.confirm(lb, 0, pl, pr)
}

// confirm narrows candidate pairs, in place, to those equal on every
// equi-pair from the from-th on. Candidates hold no NULL in any key column.
func (j *vecJoin) confirm(lb *vec.Batch, from int, pl, pr []int32) ([]int32, []int32) {
	for k := from; k < len(j.lKeys); k++ {
		pl, pr = keepEqual(lb.Cols[j.lKeys[k]], j.rt.Cols[j.rKeys[k]], pl, pr)
	}
	return pl, pr
}

// joinBatch produces one output batch for one left batch's selected rows
// (possibly empty for semi/anti/filtered joins; the caller skips empties).
func (j *vecJoin) joinBatch(lb *vec.Batch, sel []int32) (*vec.Batch, error) {
	n := selLen(sel, lb)
	pl, pr := reuse(j.pl, n), reuse(j.pr, n) // matched pairs, left-major
	var err error
	if j.useHash {
		if j.byInt {
			pl, pr = j.probeInt(lb, sel, pl, pr)
		} else {
			pl, pr = j.probeHashed(lb, sel, pl, pr)
		}
		if j.residual != nil && len(pl) > 0 {
			if pl, pr, err = j.filterPairs(lb, pl, pr, j.residual); err != nil {
				return nil, err
			}
		}
	} else {
		// Nested loop, one left row at a time so the candidate pair batch
		// stays bounded by the build side's size.
		m := selLen(j.rsel, j.rt)
		for i := 0; i < n; i++ {
			kl, kr := reuse(j.cl, m), reuse(j.cr, m)
			for k := 0; k < m; k++ {
				kl, kr = append(kl, int32(pos(sel, i))), append(kr, int32(pos(j.rsel, k)))
			}
			j.cl, j.cr = kl, kr
			if j.op.On != nil && len(kl) > 0 {
				if kl, kr, err = j.filterPairs(lb, kl, kr, j.op.On); err != nil {
					return nil, err
				}
			}
			pl, pr = append(pl, kl...), append(pr, kr...)
		}
	}
	j.pl, j.pr = pl, pr
	return j.emit(lb, sel, pl, pr), nil
}

// filterPairs keeps, in place, the candidate (left, right) pairs whose
// predicate is TRUE, evaluated over the concatenated pair schema —
// residuals see the full pair row even when the join's output is
// left-only.
func (j *vecJoin) filterPairs(lb *vec.Batch, pl, pr []int32, on algebra.Scalar) ([]int32, []int32, error) {
	if j.pairVE == nil {
		// The one predicate: the residual of a hash join, else ON.
		j.pairVE = newVecEnv(j.pairCols)
		j.pb = &vec.Batch{Cols: make([]*vec.Vec, len(j.pairCols))}
		algebra.ScalarCols(on).ForEach(func(id algebra.ColumnID) {
			if c, ok := j.pairVE.idx[id]; ok {
				j.reads = append(j.reads, c)
			}
		})
	}
	// Only the columns the predicate reads are gathered, into scratch;
	// evaluation never touches the others.
	j.pairVE.reset()
	pb := j.pb
	pb.N = len(pl)
	for _, c := range j.reads {
		if c < j.lWidth {
			pb.Cols[c] = j.pairVE.gather(lb.Cols[c], pl, false)
		} else {
			pb.Cols[c] = j.pairVE.gather(j.rt.Cols[c-j.lWidth], pr, false)
		}
	}
	keep, err := trueRows(on, j.pairVE, pb, nil, "join predicate")
	if err != nil {
		return nil, nil, err
	}
	for k, i := range keep {
		pl[k], pr[k] = pl[i], pr[i]
	}
	return pl[:len(keep)], pr[:len(keep)], nil
}

// emit walks the left batch's selection in row order and materializes the
// join kind's output from the matched pairs (which are left-major).
func (j *vecJoin) emit(lb *vec.Batch, sel, pl, pr []int32) *vec.Batch {
	var lsel, rsel []int32 // rsel entry -1 = NULL right padding
	switch j.op.Kind {
	case algebra.JoinSemi, algebra.JoinAnti, algebra.JoinLeftOuter, algebra.JoinFullOuter:
		lsel, rsel = reuse(j.ls, len(pl)+lb.N), reuse(j.rs, len(pl)+lb.N)
		p := 0
		for i, n := 0, selLen(sel, lb); i < n; i++ {
			li := pos(sel, i)
			start := p
			for p < len(pl) && pl[p] == int32(li) {
				if j.rightMatched != nil {
					j.rightMatched[pr[p]] = true
				}
				p++
			}
			matched := p > start
			switch j.op.Kind {
			case algebra.JoinSemi:
				if matched {
					lsel = append(lsel, int32(li))
				}
			case algebra.JoinAnti:
				if !matched {
					lsel = append(lsel, int32(li))
				}
			default: // left outer, full outer
				if matched {
					for i := start; i < p; i++ {
						lsel = append(lsel, int32(li))
						rsel = append(rsel, pr[i])
					}
				} else {
					lsel = append(lsel, int32(li))
					rsel = append(rsel, -1)
				}
			}
		}
		j.ls, j.rs = lsel, rsel
	default:
		// Inner and cross joins: the left-major pairs already ARE the
		// output selection, and nothing reads rightMatched.
		lsel, rsel = pl, pr
	}
	out := &vec.Batch{N: len(lsel), Cols: make([]*vec.Vec, 0, len(j.outCols))}
	for _, v := range lb.Cols {
		out.Cols = append(out.Cols, v.Gather(lsel))
	}
	switch j.op.Kind {
	case algebra.JoinSemi, algebra.JoinAnti:
	default:
		for _, v := range j.rt.Cols {
			out.Cols = append(out.Cols, gatherPad(v, rsel))
		}
	}
	return out
}

// gatherPad gathers with -1 selections producing NULL (outer-join
// padding): a padded row takes row 0's payload slot under a NULL bit.
func gatherPad(v *vec.Vec, sel []int32) *vec.Vec {
	if !slices.Contains(sel, -1) {
		return v.Gather(sel)
	}
	if v.Len() == 0 {
		return vec.NullVec(len(sel))
	}
	safe := make([]int32, len(sel))
	for i, s := range sel {
		safe[i] = max(s, 0)
	}
	out := v.Gather(safe)
	for i, s := range sel {
		if s < 0 {
			out.SetNull(i)
		}
	}
	return out
}

// unmatchedRight emits a full outer join's never-matched build rows, NULL
// padded on the left, in right order.
func (j *vecJoin) unmatchedRight() *vec.Batch {
	var rsel []int32
	for i, n := 0, selLen(j.rsel, j.rt); i < n; i++ {
		if ri := pos(j.rsel, i); !j.rightMatched[ri] {
			rsel = append(rsel, int32(ri))
		}
	}
	if len(rsel) == 0 {
		return nil
	}
	out := &vec.Batch{N: len(rsel), Cols: make([]*vec.Vec, 0, len(j.outCols))}
	for i := 0; i < j.lWidth; i++ {
		out.Cols = append(out.Cols, vec.NullVec(len(rsel)))
	}
	for _, v := range j.rt.Cols {
		out.Cols = append(out.Cols, v.Gather(rsel))
	}
	return out
}

// vecGroup aggregates batch streams. Aggregate arguments are evaluated
// one vector per batch, and keys resolved, under the input's selection;
// groups are numbered in first-seen order, which is the output order.
// groupKeys finds each row's group and aggSlab holds one aggregate's
// accumulators for every group, so a new group allocates nothing of its
// own.
type vecGroup struct {
	op  *algebra.GroupBy
	in  vecNode
	out []algebra.ColumnMeta
	ve  *vecEnv

	res *windows // every group, built on the first pull
}

func (g *vecGroup) cols() []algebra.ColumnMeta { return g.out }

func (g *vecGroup) next() (*vec.Batch, []int32, error) {
	if g.res == nil {
		b, err := g.aggregate()
		if err != nil {
			return nil, nil, err
		}
		g.res = &windows{b: b}
	}
	return g.res.next(), nil, nil
}

func (g *vecGroup) whole() (*vec.Batch, []int32, bool, error) {
	b, err := g.aggregate()
	return b, nil, err == nil, err
}

// aggregate drains the input and returns one row per group.
func (g *vecGroup) aggregate() (*vec.Batch, error) {
	inCols := g.in.cols()
	keyPos := make([]int, len(g.op.Keys))
	for i, k := range g.op.Keys {
		keyPos[i] = -1
		for j, c := range inCols {
			if c.ID == k {
				keyPos[i] = j
			}
		}
		if keyPos[i] < 0 {
			return nil, fmt.Errorf("exec: group key c%d missing", k)
		}
	}
	gk := newGroupKeys(keyPos)
	slabs := make([]aggSlab, len(g.op.Aggs))
	for a := range slabs {
		slabs[a] = newAggSlab(&g.op.Aggs[a])
	}
	argVecs := make([]*vec.Vec, len(slabs))
	var gids []int32
	for {
		b, sel, err := g.in.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		g.ve.reset()
		for ai, a := range g.op.Aggs {
			argVecs[ai] = nil // COUNT(*)
			if a.Arg != nil {
				if argVecs[ai], err = evalTemp(a.Arg, g.ve, b, sel); err != nil {
					return nil, err
				}
			}
		}
		n := selLen(sel, b)
		gids = reuse(gids, n)[:n]
		gk.resolve(b, sel, gids)
		// Accumulate one aggregate column at a time. Error choice can
		// differ from the row engine when distinct (row, agg) cells would
		// each error — presence cannot (see the vecexpr.go header).
		for ai := range slabs {
			slabs[ai].grow(gk.n)
			if err := slabs[ai].add(argVecs[ai], gids); err != nil {
				return nil, err
			}
		}
	}
	groups := gk.n
	if len(keyPos) == 0 && groups == 0 {
		// A scalar aggregate over empty input yields one all-default row.
		groups = 1
		for ai := range slabs {
			slabs[ai].grow(groups)
		}
	}
	out := &vec.Batch{N: groups, Cols: make([]*vec.Vec, 0, len(keyPos)+len(slabs))}
	for c := range keyPos {
		out.Cols = append(out.Cols, gk.column(c))
	}
	for ai := range slabs {
		out.Cols = append(out.Cols, slabs[ai].column(groups))
	}
	return out, nil
}

// groupKeys resolves rows to groups through one idTable. A single key
// starts in payload mode: a group is found by its INT payload (ints), and
// every NULL key shares nullGroup, so nothing is hashed or boxed. The
// first batch whose key vector is neither typed INT nor all-NULL demotes
// it, once, to the general mode, which every other key set starts in: a
// group is found by its key hash (hashes, chained through next when
// distinct keys share a hash) and confirmed by groupKeyMatch against its
// boxed key values.
type groupKeys struct {
	keyPos    []int
	n         int // groups so far
	byPayload bool
	ints      []int64 // payload mode: per group, its key (the NULL group's is 0)
	intTab    idTable[int64]
	nullGroup int32    // payload mode: the NULL key's group, or -1
	hashes    []uint64 // general mode: per group, its key hash
	hashTab   idTable[uint64]
	next      []int32       // general mode: per group, the previous group with its hash, or -1
	vals      []types.Value // general mode: group i's key values at vals[i·len(keyPos):]
	hs        []uint64      // key hash scratch
}

func newGroupKeys(keyPos []int) *groupKeys {
	g := &groupKeys{keyPos: keyPos, byPayload: len(keyPos) == 1, nullGroup: -1}
	if g.byPayload {
		g.intTab = newIDTable[int64](0)
	} else {
		g.hashTab = newIDTable[uint64](0)
	}
	return g
}

// resolve writes each selected row's group into gids, creating groups in
// first-seen order.
func (g *groupKeys) resolve(b *vec.Batch, sel []int32, gids []int32) {
	if g.byPayload {
		if c := b.Cols[g.keyPos[0]]; !c.Mixed && (c.Kind == types.KindInt || c.Kind == types.KindNull) {
			g.resolveInts(c, sel, gids)
			return
		}
		g.demote()
	}
	k := len(g.keyPos)
	g.hs = keyHashes(b, sel, g.keyPos, g.hs)
	for i, h := range g.hs {
		r := pos(sel, i)
		gid := g.hashTab.find(g.hashes, h)
		for gid >= 0 && !groupKeyMatch(g.vals[int(gid)*k:], b, g.keyPos, r) {
			gid = g.next[gid]
		}
		if gid < 0 {
			gid = int32(g.n)
			g.n++
			g.hashes = append(g.hashes, h)
			g.next = append(g.next, g.hashTab.insert(g.hashes, gid))
			for _, p := range g.keyPos {
				g.vals = append(g.vals, b.Cols[p].At(r))
			}
		}
		gids[i] = gid
	}
}

// resolveInts is resolve in payload mode, over a typed INT or all-NULL
// key vector.
func (g *groupKeys) resolveInts(c *vec.Vec, sel, gids []int32) {
	for i := range gids {
		r := pos(sel, i)
		if c.Kind == types.KindNull || c.Nulls != nil && c.IsNull(r) {
			if g.nullGroup < 0 {
				g.nullGroup = int32(g.n)
				g.n++
				g.ints = append(g.ints, 0)
			}
			gids[i] = g.nullGroup
			continue
		}
		x := c.I64[r]
		gid := g.intTab.find(g.ints, x)
		if gid < 0 {
			gid = int32(g.n)
			g.n++
			g.ints = append(g.ints, x)
			g.intTab.insert(g.ints, gid)
		}
		gids[i] = gid
	}
}

// demote moves payload mode's groups to the general mode: each group's
// key is boxed and hashed (types.Hash, what keyHashes gives one key) and
// re-inserted in group order, so each hash's newest group heads its chain.
func (g *groupKeys) demote() {
	g.byPayload = false
	g.vals = make([]types.Value, g.n)
	g.hashes = make([]uint64, g.n)
	g.next = make([]int32, g.n)
	g.hashTab = newIDTable[uint64](g.n)
	for gid := range g.vals {
		if int32(gid) != g.nullGroup {
			g.vals[gid] = types.NewInt(g.ints[gid])
		}
		g.hashes[gid] = types.Hash(g.vals[gid])
		g.next[gid] = g.hashTab.insert(g.hashes, int32(gid))
	}
	g.ints, g.intTab = nil, idTable[int64]{}
}

// column returns key c's output vector: the one vec.Column builds from the
// groups' key values.
func (g *groupKeys) column(c int) *vec.Vec {
	switch {
	case !g.byPayload:
		k := len(g.keyPos)
		return vec.Column(g.n, func(i int) types.Value { return g.vals[i*k+c] })
	case g.n == 1 && g.nullGroup == 0: // every key is NULL
		return vec.Column(1, func(int) types.Value { return types.Null })
	}
	// The key slab is finished: hand it over.
	v := vec.Ints(types.KindInt, g.ints[:g.n])
	if g.nullGroup >= 0 {
		v.SetNull(int(g.nullGroup))
	}
	return v
}

// groupKeyMatch compares one candidate group's key values against batch
// position i, with typed payload fast paths. Semantics are exactly
// types.Equal's: NULL keys group together, numerics compare float-coerced
// across kinds (the cross-kind case falls back to types.Equal), and float
// equality is Compare==0 — NOT Go == — so NaN keys group the way the row
// engine groups them.
func groupKeyMatch(cand []types.Value, b *vec.Batch, keyPos []int, i int) bool {
	for ki, p := range keyPos {
		c := b.Cols[p]
		kv := cand[ki]
		if c.Mixed {
			if !types.Equal(kv, c.At(i)) {
				return false
			}
			continue
		}
		cn := c.IsNull(i)
		if kv.IsNull() != cn {
			return false
		}
		if cn {
			continue
		}
		if kv.Kind() != c.Kind {
			if !types.Equal(kv, c.At(i)) {
				return false
			}
			continue
		}
		switch c.Kind {
		case types.KindInt:
			if kv.Int() != c.I64[i] {
				return false
			}
		case types.KindDate:
			if kv.DateDays() != c.I64[i] {
				return false
			}
		case types.KindBool:
			if kv.Bool() != (c.I64[i] != 0) {
				return false
			}
		case types.KindFloat:
			a, x := kv.Float(), c.F64[i]
			if a < x || a > x {
				return false
			}
		case types.KindString:
			if kv.Str() != c.Str[i] {
				return false
			}
		}
	}
	return true
}

// aggSlab holds one aggregate's accumulators for every group, indexed by
// group. COUNT (not DISTINCT) is a count of the non-NULL argument rows
// read off the bitmap. SUM (not DISTINCT) is a float64 sum plus a seen
// flag while every argument batch is typed FLOAT or all-NULL: the first
// value is adopted as it is and later ones added, so a group of -0 sums
// to -0, as aggState's SUM does. The first other argument batch promotes
// it, once and exactly, to aggState, which every other aggregate uses
// from the start (shared addValue, the row engine's accumulation).
type aggSlab struct {
	def    *algebra.AggDef
	kind   slabKind
	count  []int64
	sum    []float64
	seen   []bool
	states []aggState
}

type slabKind int8

const (
	slabCount slabKind = iota
	slabSum
	slabStates
)

func newAggSlab(def *algebra.AggDef) aggSlab {
	s := aggSlab{def: def, kind: slabStates}
	switch {
	case def.Distinct:
	case def.Func == algebra.AggCount:
		s.kind = slabCount
	case def.Func == algebra.AggSum:
		s.kind = slabSum
	}
	return s
}

// grow extends the slab to n groups.
func (s *aggSlab) grow(n int) {
	switch s.kind {
	case slabCount:
		s.count = extend(s.count, n)
	case slabSum:
		s.sum, s.seen = extend(s.sum, n), extend(s.seen, n)
	default:
		for len(s.states) < n {
			s.states = append(s.states, initAggState(s.def))
		}
	}
}

// extend lengthens s to n elements, the new ones zero: a slab is only
// ever lengthened, so its spare capacity is still zero.
func extend[T any](s []T, n int) []T {
	if n > cap(s) {
		t := make([]T, len(s), max(n, 2*cap(s)))
		copy(t, s)
		s = t
	}
	return s[:n]
}

// add folds one batch's argument vector (nil for COUNT(*)) into the
// groups of its rows.
func (s *aggSlab) add(v *vec.Vec, gids []int32) error {
	allNull := v != nil && !v.Mixed && v.Kind == types.KindNull
	if s.kind == slabSum && !allNull && (v.Mixed || v.Kind != types.KindFloat) {
		s.promote()
	}
	switch {
	case s.kind == slabStates:
		for i, gid := range gids {
			if err := s.states[gid].addValue(v.At(i)); err != nil {
				return err
			}
		}
	case allNull:
	case s.kind == slabCount && (v == nil || v.Nulls == nil):
		for _, gid := range gids {
			s.count[gid]++
		}
	case s.kind == slabCount:
		for i, gid := range gids {
			if !v.IsNull(i) {
				s.count[gid]++
			}
		}
	default:
		for i, gid := range gids {
			switch x := v.F64[i]; {
			case v.Nulls != nil && v.IsNull(i):
			case s.seen[gid]:
				s.sum[gid] += x
			default:
				s.sum[gid], s.seen[gid] = x, true
			}
		}
	}
	return nil
}

// promote moves a SUM's float sums into aggState, each exactly the state
// addValue would have reached over the same values.
func (s *aggSlab) promote() {
	s.kind = slabStates
	s.states = make([]aggState, len(s.sum))
	for gid, x := range s.sum {
		s.states[gid] = initAggState(s.def)
		if s.seen[gid] {
			s.states[gid].acc = types.NewFloat(x)
		}
	}
	s.sum, s.seen = nil, nil
}

// column returns the slab's results for groups [0, n) as an output vector:
// the one vec.Column builds from the same values.
func (s *aggSlab) column(n int) *vec.Vec {
	switch {
	case s.kind == slabStates:
		return vec.Column(n, func(gid int) types.Value { return s.states[gid].result() })
	case s.kind == slabCount:
		return vec.Ints(types.KindInt, s.count[:n])
	case !slices.Contains(s.seen, true): // every sum is NULL
		return vec.Column(n, func(int) types.Value { return types.Null })
	}
	v := vec.Floats(s.sum[:n])
	for gid, seen := range s.seen[:n] {
		if !seen {
			v.SetNull(gid)
		}
	}
	return v
}

// vecSort drains its input, sorts a permutation of its rows' positions
// with the engine-wide MergeKey comparator (stable; NULLS FIRST ascending /
// LAST descending), applies TOP, gathers the rows in that order and
// re-emits them in batches. An input drained as one part is sorted in
// place, under its selection, and gathered once.
type vecSort struct {
	op *algebra.Sort
	in vecNode

	res *windows
}

func (s *vecSort) cols() []algebra.ColumnMeta { return s.in.cols() }

func (s *vecSort) next() (*vec.Batch, []int32, error) {
	if s.res == nil {
		b, err := s.sorted()
		if err != nil {
			return nil, nil, err
		}
		s.res = &windows{b: b}
	}
	return s.res.next(), nil, nil
}

func (s *vecSort) whole() (*vec.Batch, []int32, bool, error) {
	b, err := s.sorted()
	return b, nil, err == nil, err
}

// sorted drains the input and returns its rows in order, TOP applied.
func (s *vecSort) sorted() (*vec.Batch, error) {
	in, perm, err := drain(s.in) // the selection is drain's: sorted in place
	if err != nil {
		return nil, err
	}
	if perm == nil {
		perm = identity(in.N)
	}
	keys, err := sortMergeKeys(s.op.Keys, s.in.cols())
	if err != nil {
		return nil, err
	}
	if err := sortPerm(perm, keys, func(row int32, pos int) types.Value { return in.Cols[pos].At(int(row)) }); err != nil {
		return nil, fmt.Errorf("exec: ORDER BY key: %w", err)
	}
	if s.op.Top > 0 && int64(len(perm)) > s.op.Top {
		perm = perm[:s.op.Top]
	}
	return vec.Concat(len(in.Cols), []*vec.Batch{in}, [][]int32{perm}), nil
}

// windows re-emits a materialized batch BatchSize rows at a time. The
// windows start on multiples of BatchSize, so they are 64-aligned and
// share the batch's storage; a batch that fits in one is emitted as is.
type windows struct {
	b   *vec.Batch
	pos int
}

func (w *windows) next() *vec.Batch {
	if w.pos >= w.b.N {
		return nil
	}
	out := window(w.b, w.pos)
	w.pos += out.N
	return out
}

// window returns the BatchSize rows of b from lo (a multiple of
// BatchSize), fewer at its end, sharing b's storage.
func window(b *vec.Batch, lo int) *vec.Batch {
	hi := min(lo+vec.BatchSize, b.N)
	if lo == 0 && hi == b.N {
		return b
	}
	out := &vec.Batch{N: hi - lo, Cols: make([]*vec.Vec, len(b.Cols))}
	for c, v := range b.Cols {
		out.Cols[c] = v.Window(lo, hi)
	}
	return out
}

// vecUnion streams the left input to exhaustion, then the right, each
// batch under its own selection.
type vecUnion struct {
	l, r     vecNode
	leftDone bool
}

func (u *vecUnion) cols() []algebra.ColumnMeta { return u.l.cols() }

func (u *vecUnion) whole() (*vec.Batch, []int32, bool, error) { return nil, nil, false, nil }

func (u *vecUnion) next() (*vec.Batch, []int32, error) {
	if !u.leftDone {
		b, sel, err := u.l.next()
		if err != nil || b != nil {
			return b, sel, err
		}
		u.leftDone = true
	}
	return u.r.next()
}
