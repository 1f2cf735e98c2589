package exec

// Vectorized operator runtime: a pull-based pipeline of batch-producing
// operators over the typed columnar format in internal/vec. The operator
// set mirrors the row engine exactly — same output ordering contracts
// (filters preserve order, hash joins emit left order × build-insertion
// order, GroupBy emits first-seen groups, sorts are stable), same error
// texts, same aggregate accumulation (shared aggState) — so the two
// engines are byte-for-byte interchangeable behind the DSQL step
// contract. Columns are the currency of data movement: RunColumns hands
// DMS one batch, and RunVec / RunVecStats box the same stream into a row
// Relation for callers that want rows.

import (
	"fmt"
	"slices"
	"strings"

	"pdwqo/internal/algebra"
	"pdwqo/internal/sqlparser"
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
// (nil disables collection). Ops/Rows/ScanRows tallies match the row
// engine's exactly; Batches additionally counts emitted column batches.
func RunVecStats(t *algebra.Tree, src ColSource, st *Stats) (*Relation, error) {
	cols, parts, sels, err := runVec(t, src, st)
	if err != nil {
		return nil, err
	}
	for i, sel := range sels {
		if sel != nil {
			parts[i] = vec.Concat(len(cols), parts[i:i+1], sels[i:i+1])
		}
	}
	return &Relation{Cols: cols, Rows: vec.AppendRows(nil, parts...)}, nil
}

// RunColumns executes like RunVecStats and returns the result as one batch
// (vec.Concat of the stream), the form DMS routes and storage inserts.
func RunColumns(t *algebra.Tree, src ColSource, st *Stats) (*vec.Batch, error) {
	cols, parts, sels, err := runVec(t, src, st)
	if err != nil {
		return nil, err
	}
	return vec.Concat(len(cols), parts, sels), nil
}

// runVec executes a tree and returns its output stream's batches and
// their selections.
func runVec(t *algebra.Tree, src ColSource, st *Stats) ([]algebra.ColumnMeta, []*vec.Batch, [][]int32, error) {
	n, err := buildVec(t, src, st)
	if err != nil {
		return nil, nil, nil, err
	}
	parts, sels, err := drain(n)
	if err != nil {
		return nil, nil, nil, err
	}
	return n.cols(), parts, sels, nil
}

// drain pulls an operator's whole output stream, copying each selection
// (its producer reuses the buffer) so that vec.Concat can take the
// selected rows once; sels stays nil while every batch is whole.
func drain(n vecNode) ([]*vec.Batch, [][]int32, error) {
	var parts []*vec.Batch
	var sels [][]int32
	for {
		b, sel, err := n.next()
		if err != nil || b == nil {
			return parts, sels, err
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
// consumer that keeps a batch longer copies it. Batches are never
// modified once emitted.
type vecNode interface {
	cols() []algebra.ColumnMeta
	next() (*vec.Batch, []int32, error)
}

// statNode wraps an operator with work tallying: rows and batches are
// accumulated as they stream past and recorded once at end of stream, so
// a completed operator contributes exactly the row engine's per-operator
// counts (an errored pipeline records nothing; the engine discards the
// attempt's stats anyway).
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
		n = &vecProject{op: op, in: in, out: t.OutputCols(), ve: newVecEnv(in.cols())}
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
		t, err := s.src(s.op.Table.Name)
		if err != nil {
			return nil, nil, err
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
				return nil, nil, fmt.Errorf("exec: column %q missing from stored %q", c.Name, s.op.Table.Name)
			}
			b.Cols[i] = t.Cols[found]
		}
		s.res = &windows{b: b}
	}
	return s.res.next(), nil, nil
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

// vecProject computes each projection definition as one vector per batch,
// under the input's selection, so its output is dense.
type vecProject struct {
	op  *algebra.Project
	in  vecNode
	out []algebra.ColumnMeta
	ve  *vecEnv
}

func (p *vecProject) cols() []algebra.ColumnMeta { return p.out }

func (p *vecProject) next() (*vec.Batch, []int32, error) {
	b, sel, err := p.in.next()
	if err != nil || b == nil {
		return nil, nil, err
	}
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

// vecJoin joins batch streams. The right (build) side is drained into one
// concatenated columnar batch, its selections taken in the same copy;
// equi-key joins probe a hash table built over it, other joins fall back
// to a per-left-row nested loop over the same batch. A probe walks the
// left batch's selection and writes candidate pairs into the join's own
// buffers, reused batch after batch: emit gathers the output columns from
// them, and filterPairs narrows them in place. Output order matches the
// row engine: left order × bucket insertion (= right row) order, with
// outer padding and full-outer unmatched-right emission in right order at
// the end.
type vecJoin struct {
	op       *algebra.Join
	left     vecNode
	right    vecNode
	outCols  []algebra.ColumnMeta
	pairCols []algebra.ColumnMeta
	lWidth   int
	useHash  bool
	lKeys    []int
	rKeys    []int
	residual algebra.Scalar

	// The hash table is a chain layout: the open-addressing table holds
	// only the first build row per key and chainNext threads the rest, so
	// building allocates two flat arrays and nothing per key. Chains are
	// threaded in ascending row order, preserving the bucket-insertion
	// output order contract. intKeys records whether table keys are raw
	// int64 payloads (single typed-INT key: bucket = equality, no confirm
	// pass) or column-wise key hashes (the probe confirms candidate pairs
	// key column by key column with keepEqual).
	init         bool
	rt           *vec.Batch
	build        *joinTable
	intKeys      bool
	chainNext    []int32
	rightMatched []bool
	pairVE       *vecEnv
	hs           []uint64 // probe-side key hash scratch
	pl, pr       []int32  // candidate pairs: left positions, right rows
	cl, cr       []int32  // one left row's nested-loop candidates
	ls, rs       []int32  // emit's output selections

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

// buildRight drains the build side as a list of batches, materializes it
// once at its exact size (vec.Concat) and, for equi-key joins, builds a
// hash table over the non-NULL keys (SQL equality never matches NULLs, so
// NULL-keyed rows stay out of the table — they still surface through
// full-outer unmatched emission).
func (j *vecJoin) buildRight() error {
	parts, sels, err := drain(j.right)
	if err != nil {
		return err
	}
	j.rt = vec.Concat(len(j.pairCols)-j.lWidth, parts, sels)
	if j.op.Kind == algebra.JoinFullOuter {
		j.rightMatched = make([]bool, j.rt.N)
	}
	if !j.useHash {
		return nil
	}
	j.chainNext = make([]int32, j.rt.N)
	j.build = newJoinTable(j.rt.N)
	// Single BIGINT key over a typed build column: the table keys on the
	// int64 payload itself, so bucket membership IS equality and the probe
	// needs no confirmation pass. Numeric cross-kind probes (a FLOAT that
	// equals an integer) convert with an exactness guard, replicating
	// types.Compare's float-coerced equality. Rows insert in descending
	// order so each chain reads out ascending.
	if len(j.rKeys) == 1 {
		kv := j.rt.Cols[j.rKeys[0]]
		if !kv.Mixed && kv.Kind == types.KindInt {
			j.intKeys = true
			for ri := j.rt.N - 1; ri >= 0; ri-- {
				if !kv.IsNull(ri) {
					j.build.insert(uint64(kv.I64[ri]), int32(ri), j.chainNext)
				}
			}
			return nil
		}
	}
	hs := keyHashes(j.rt, nil, j.rKeys, nil)
	nulls := keyNulls(j.rt, j.rKeys)
	for ri := j.rt.N - 1; ri >= 0; ri-- {
		if !bitSet(nulls, ri) {
			j.build.insert(hs[ri], int32(ri), j.chainNext)
		}
	}
	return nil
}

// keyHashes folds a batch's key columns, column by column, into one hash
// per selected row (types.Hash's encoding; a single key column gives
// types.Hash itself). Equal keys hash equally, INT and FLOAT alike, so the
// hash buckets and the confirming comparison agree. scratch is reused when
// it is large enough.
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
// NULL key, which equality never matches. nil means no NULL key.
func keyNulls(b *vec.Batch, keys []int) []uint64 {
	var out []uint64
	for _, k := range keys {
		v := b.Cols[k]
		if v.Nulls == nil {
			continue
		}
		if out == nil {
			out = make([]uint64, (b.N+63)>>6)
		}
		for w := 0; w < len(out) && w < len(v.Nulls); w++ {
			out[w] |= v.Nulls[w]
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
// one key column pair are equal under types.Compare — typed payloads are
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
		// Float-coerced, and NaN-tolerant exactly as types.Compare is.
		for i := range pl {
			keep(i, holds(sqlparser.OpEq, numAt(a, pl[i]), numAt(b, pr[i])))
		}
	default:
		for i := range pl {
			x, y := a.At(int(pl[i])), b.At(int(pr[i]))
			keep(i, types.Comparable(x.Kind(), y.Kind()) && types.Compare(x, y) == 0)
		}
	}
	return pl[:out], pr[:out]
}

// numAt reads a typed numeric vector's row as a float64.
func numAt(v *vec.Vec, i int32) float64 {
	if v.Kind == types.KindFloat {
		return v.F64[i]
	}
	return float64(v.I64[i])
}

// joinTable is a linear-probing hash table from a 64-bit key to the head
// of a build-row chain. Slots store the full key, so distinct keys never
// share a chain; when keys are composite hashes, hash collisions share
// one chain exactly as they shared one map bucket, and the probe-side
// confirmation filters them.
type joinTable struct {
	shift uint
	keys  []uint64
	heads []int32 // -1 = empty slot
}

func newJoinTable(n int) *joinTable {
	sz, lg := 16, uint(4)
	for sz < 2*n {
		sz <<= 1
		lg++
	}
	t := &joinTable{shift: 64 - lg, keys: make([]uint64, sz), heads: make([]int32, sz)}
	for i := range t.heads {
		t.heads[i] = -1
	}
	return t
}

// fibMul spreads keys across the high bits (Fibonacci hashing), which
// linear probing then shifts down into a slot index.
const fibMul = 0x9E3779B97F4A7C15

func (t *joinTable) insert(k uint64, ri int32, chainNext []int32) {
	i := int((k * fibMul) >> t.shift)
	for {
		if t.heads[i] < 0 {
			t.keys[i] = k
			t.heads[i] = ri
			chainNext[ri] = -1
			return
		}
		if t.keys[i] == k {
			chainNext[ri] = t.heads[i]
			t.heads[i] = ri
			return
		}
		i++
		if i == len(t.heads) {
			i = 0
		}
	}
}

func (t *joinTable) find(k uint64) (int32, bool) {
	i := int((k * fibMul) >> t.shift)
	for {
		h := t.heads[i]
		if h < 0 {
			return 0, false
		}
		if t.keys[i] == k {
			return h, true
		}
		i++
		if i == len(t.heads) {
			i = 0
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
// selected rows, appending the candidate pairs to pl, pr.
func (j *vecJoin) probeInt(lb *vec.Batch, sel, pl, pr []int32) ([]int32, []int32) {
	kv := lb.Cols[j.lKeys[0]]
	if !kv.Mixed && kv.Kind != types.KindInt && kv.Kind != types.KindFloat {
		// DATE/BIT/STRING/all-NULL probes are never comparable with a
		// BIGINT build key, so nothing matches.
		return pl, pr
	}
	for i, n := 0, selLen(sel, lb); i < n; i++ {
		li := pos(sel, i)
		var k int64
		switch {
		case kv.IsNull(li):
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
		if head, ok := j.build.find(uint64(k)); ok {
			for ri := head; ri >= 0; ri = j.chainNext[ri] {
				pl = append(pl, int32(li))
				pr = append(pr, ri)
			}
		}
	}
	return pl, pr
}

// probeHashed probes the key-hash table for one left batch's selected
// rows: key hashes fold column-wise, every chain a hash reaches yields
// candidate pairs, and the candidates are confirmed key column by key
// column.
func (j *vecJoin) probeHashed(lb *vec.Batch, sel, pl, pr []int32) ([]int32, []int32) {
	j.hs = keyHashes(lb, sel, j.lKeys, j.hs)
	nulls := keyNulls(lb, j.lKeys)
	for i, h := range j.hs {
		li := pos(sel, i)
		if bitSet(nulls, li) {
			continue
		}
		if head, ok := j.build.find(h); ok {
			for ri := head; ri >= 0; ri = j.chainNext[ri] {
				pl = append(pl, int32(li))
				pr = append(pr, ri)
			}
		}
	}
	for k := range j.lKeys {
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
		if j.intKeys {
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
		for i := 0; i < n; i++ {
			kl, kr := reuse(j.cl, j.rt.N), reuse(j.cr, j.rt.N)
			for ri := 0; ri < j.rt.N; ri++ {
				kl, kr = append(kl, int32(pos(sel, i))), append(kr, int32(ri))
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
		j.pairVE = newVecEnv(j.pairCols)
	}
	// Only the columns the predicate reads are gathered; evaluation never
	// touches the others.
	pb := &vec.Batch{N: len(pl), Cols: make([]*vec.Vec, len(j.pairCols))}
	for _, c := range j.pairVE.readsOf(on) {
		if c < j.lWidth {
			pb.Cols[c] = lb.Cols[c].Gather(pl)
		} else {
			pb.Cols[c] = j.rt.Cols[c-j.lWidth].Gather(pr)
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
	for ri, m := range j.rightMatched {
		if !m {
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
// one vector per batch, and keys hashed and resolved, under the input's
// selection; accumulation reuses the row engine's aggState
// (shared addValue), and groups emit in first-seen order.
type vecGroup struct {
	op  *algebra.GroupBy
	in  vecNode
	out []algebra.ColumnMeta
	ve  *vecEnv

	res *windows // every group, built on the first pull
}

func (g *vecGroup) cols() []algebra.ColumnMeta { return g.out }

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

// aggVecMode selects, per (aggregate, batch), how argument values fold
// into the shared aggState: the generic boxed route or a typed shortcut
// whose observable effect is identical.
type aggVecMode int8

const (
	aggVecBoxed      aggVecMode = iota // addValue per boxed value
	aggVecStar                         // COUNT(*): no argument
	aggVecSumFloat                     // SUM over a typed FLOAT vector
	aggVecCountDense                   // COUNT over a typed NULL-free vector
)

// aggVecModeOf picks the accumulation mode for one aggregate against one
// argument vector. DISTINCT always takes the boxed route (it needs the
// shared types.Hash dedup the row engine uses).
func aggVecModeOf(def algebra.AggDef, v *vec.Vec) aggVecMode {
	if def.Distinct || v.Mixed {
		return aggVecBoxed
	}
	switch {
	case def.Func == algebra.AggSum && v.Kind == types.KindFloat:
		return aggVecSumFloat
	case def.Func == algebra.AggCount && v.Kind != types.KindNull && v.Nulls == nil:
		return aggVecCountDense
	}
	return aggVecBoxed
}

// sumFloat folds one non-NULL FLOAT argument, staying on a float64
// running sum once the accumulator is FLOAT; kind adoption and mixed-kind
// promotion route through addValue so semantics stay shared.
func (s *aggState) sumFloat(x float64) error {
	if s.acc.Kind() == types.KindFloat {
		s.acc = types.NewFloat(s.acc.Float() + x)
		return nil
	}
	return s.addValue(types.NewFloat(x))
}

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

// aggregate drains the input and returns one row per group. Groups live in
// flat slabs — group i's key values at keys[i·k:], its aggregate states
// at states[i·na:] — found through a hash → newest-group map chained by
// next, so a new group allocates nothing of its own.
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
	k, na := len(keyPos), len(g.op.Aggs)
	heads := map[uint64]int32{}
	var next []int32 // per group: the previous group with its hash, or -1
	var keys []types.Value
	var states []aggState
	groups := 0
	argVecs := make([]*vec.Vec, na)
	argMode := make([]aggVecMode, na)
	var hs []uint64
	var gids []int32
	for {
		b, sel, err := g.in.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		n := selLen(sel, b)
		for ai, a := range g.op.Aggs {
			if a.Arg == nil {
				argMode[ai] = aggVecStar
				continue
			}
			v, err := evalVec(a.Arg, g.ve, b, sel)
			if err != nil {
				return nil, err
			}
			argVecs[ai] = v
			argMode[ai] = aggVecModeOf(a, v)
		}
		// Key hashes fold column-wise over the whole batch, reusing one
		// scratch slice — no per-row hasher or key-row allocation.
		hs = keyHashes(b, sel, keyPos, hs)
		if cap(gids) < n {
			gids = make([]int32, n)
		}
		gids = gids[:n]
		// Pass 1: resolve every row to its group in first-seen order.
		for i := 0; i < n; i++ {
			gid := int32(-1)
			head, seen := heads[hs[i]]
			for c := head; seen && c >= 0; c = next[c] {
				if groupKeyMatch(keys[int(c)*k:], b, keyPos, pos(sel, i)) {
					gid = c
					break
				}
			}
			if gid < 0 {
				gid = int32(groups)
				groups++
				if !seen {
					head = -1
				}
				next = append(next, head)
				heads[hs[i]] = gid
				for _, p := range keyPos {
					keys = append(keys, b.Cols[p].At(pos(sel, i)))
				}
				for a := range g.op.Aggs {
					states = append(states, initAggState(&g.op.Aggs[a]))
				}
			}
			gids[i] = gid
		}
		// Pass 2: accumulate one aggregate column at a time. Error choice
		// can differ from the row engine when distinct (row, agg) cells
		// would each error — presence cannot (see the vecexpr.go header).
		for ai := range g.op.Aggs {
			state := func(gid int32) *aggState { return &states[int(gid)*na+ai] }
			switch argMode[ai] {
			case aggVecStar, aggVecCountDense:
				// COUNT(*) / COUNT over a NULL-free vector: pure tallies.
				for _, gid := range gids {
					state(gid).count++
				}
			case aggVecSumFloat:
				v := argVecs[ai]
				for i, gid := range gids {
					if v.Nulls != nil && v.IsNull(i) {
						continue
					}
					if err := state(gid).sumFloat(v.F64[i]); err != nil {
						return nil, err
					}
				}
			default:
				v := argVecs[ai]
				for i, gid := range gids {
					if err := state(gid).addValue(v.At(i)); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	// A scalar aggregate over empty input yields one all-default row.
	if k == 0 && groups == 0 {
		for a := range g.op.Aggs {
			states = append(states, initAggState(&g.op.Aggs[a]))
		}
		groups = 1
	}
	out := &vec.Batch{N: groups, Cols: make([]*vec.Vec, k+na)}
	for c := 0; c < k; c++ {
		out.Cols[c] = vec.Column(groups, func(i int) types.Value { return keys[i*k+c] })
	}
	for a := 0; a < na; a++ {
		out.Cols[k+a] = vec.Column(groups, func(i int) types.Value { return states[i*na+a].result() })
	}
	return out, nil
}

// vecSort drains its input, sorts a row permutation with the engine-wide
// MergeKey comparator (stable; NULLS FIRST ascending / LAST descending),
// applies TOP, gathers the rows in that order and re-emits them in
// batches.
type vecSort struct {
	op *algebra.Sort
	in vecNode

	res *windows
}

func (s *vecSort) cols() []algebra.ColumnMeta { return s.in.cols() }

func (s *vecSort) next() (*vec.Batch, []int32, error) {
	if s.res == nil {
		parts, sels, err := drain(s.in)
		if err != nil {
			return nil, nil, err
		}
		in := vec.Concat(len(s.in.cols()), parts, sels)
		keys, err := sortMergeKeys(s.op.Keys, s.in.cols())
		if err != nil {
			return nil, nil, err
		}
		perm := identity(in.N)
		if err := sortPerm(perm, keys, func(row int32, pos int) types.Value { return in.Cols[pos].At(int(row)) }); err != nil {
			return nil, nil, fmt.Errorf("exec: ORDER BY key: %w", err)
		}
		if s.op.Top > 0 && int64(len(perm)) > s.op.Top {
			perm = perm[:s.op.Top]
		}
		s.res = &windows{b: vec.Concat(len(in.Cols), []*vec.Batch{in}, [][]int32{perm})}
	}
	return s.res.next(), nil, nil
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
	lo, hi := w.pos, min(w.pos+vec.BatchSize, w.b.N)
	w.pos = hi
	if lo == 0 && hi == w.b.N {
		return w.b
	}
	out := &vec.Batch{N: hi - lo, Cols: make([]*vec.Vec, len(w.b.Cols))}
	for c, v := range w.b.Cols {
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
