package exec

// Vectorized operator runtime: a pull-based pipeline of batch-producing
// operators over the typed columnar format in internal/vec. The operator
// set mirrors the row engine exactly — same output ordering contracts
// (filters preserve order, hash joins emit left order × build-insertion
// order, GroupBy emits first-seen groups, sorts are stable), same error
// texts, same aggregate accumulation (shared aggState) — so the two
// engines are byte-for-byte interchangeable behind the DSQL step
// contract. Rows stay the currency of data movement: RunVec materializes
// its final batches back into a row Relation.

import (
	"fmt"
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
// (nil disables collection). Ops/Rows/ScanRows tallies match the row
// engine's exactly; Batches additionally counts emitted column batches.
func RunVecStats(t *algebra.Tree, src ColSource, st *Stats) (*Relation, error) {
	n, err := buildVec(t, src, st)
	if err != nil {
		return nil, err
	}
	out := &Relation{Cols: n.cols()}
	var batches []*vec.Batch
	total := 0
	for {
		b, err := n.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		batches = append(batches, b)
		total += b.N
	}
	if total == 0 {
		return out, nil
	}
	// Materialize once at end of stream: one backing array and one row
	// slice sized to the exact result, filled column-major per batch.
	w := len(out.Cols)
	backing := make([]types.Value, total*w)
	out.Rows = make([]types.Row, 0, total)
	off := 0
	for _, b := range batches {
		for c, v := range b.Cols {
			for i := 0; i < b.N; i++ {
				backing[(off+i)*w+c] = v.At(i)
			}
		}
		for i := 0; i < b.N; i++ {
			base := (off + i) * w
			out.Rows = append(out.Rows, types.Row(backing[base:base+w:base+w]))
		}
		off += b.N
	}
	return out, nil
}

// vecNode is one pull-based operator: next returns the following batch,
// or nil at end of stream.
type vecNode interface {
	cols() []algebra.ColumnMeta
	next() (*vec.Batch, error)
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

func (s *statNode) next() (*vec.Batch, error) {
	b, err := s.inner.next()
	if err != nil {
		return nil, err
	}
	if b == nil {
		if !s.done {
			s.done = true
			s.st.recordCounts(s.op, s.rows, s.batches)
		}
		return nil, nil
	}
	s.rows += int64(b.N)
	s.batches++
	return b, nil
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

// gatherBatch gathers every column of a batch under one selection.
func gatherBatch(b *vec.Batch, sel []int32) *vec.Batch {
	out := &vec.Batch{N: len(sel), Cols: make([]*vec.Vec, len(b.Cols))}
	for i, v := range b.Cols {
		out.Cols[i] = v.Gather(sel)
	}
	return out
}

// vecScan windows batches out of a table's stored columns: BatchSize is
// a multiple of 64, so every window is a zero-copy bitmap-aligned slice.
type vecScan struct {
	op   *algebra.Get
	src  ColSource
	init bool
	vecs []*vec.Vec // stored vectors in (possibly pruned) op.Cols order
	n    int
	pos  int
}

func (s *vecScan) cols() []algebra.ColumnMeta { return s.op.Cols }

func (s *vecScan) next() (*vec.Batch, error) {
	if !s.init {
		t, err := s.src(s.op.Table.Name)
		if err != nil {
			return nil, err
		}
		s.vecs = make([]*vec.Vec, len(s.op.Cols))
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
			s.vecs[i] = t.Cols[found]
		}
		s.n = t.N
		s.init = true
	}
	if s.pos >= s.n {
		return nil, nil
	}
	hi := s.pos + vec.BatchSize
	if hi > s.n {
		hi = s.n
	}
	b := &vec.Batch{N: hi - s.pos, Cols: make([]*vec.Vec, len(s.vecs))}
	for i, v := range s.vecs {
		b.Cols[i] = v.Window(s.pos, hi)
	}
	s.pos = hi
	return b, nil
}

// vecValues emits a literal relation in BatchSize chunks.
type vecValues struct {
	op  *algebra.Values
	pos int
}

func (v *vecValues) cols() []algebra.ColumnMeta { return v.op.Cols }

func (v *vecValues) next() (*vec.Batch, error) {
	if v.pos >= len(v.op.Rows) {
		return nil, nil
	}
	hi := v.pos + vec.BatchSize
	if hi > len(v.op.Rows) {
		hi = len(v.op.Rows)
	}
	b := &vec.Batch{N: hi - v.pos, Cols: make([]*vec.Vec, len(v.op.Cols))}
	for c := range v.op.Cols {
		col := &vec.Vec{}
		for i := v.pos; i < hi; i++ {
			col.Append(v.op.Rows[i][c])
		}
		b.Cols[c] = col
	}
	v.pos = hi
	return b, nil
}

// vecFilter evaluates the predicate over each input batch and gathers the
// selected rows, preserving input order. Batches the predicate empties
// are skipped, not emitted.
type vecFilter struct {
	op *algebra.Select
	in vecNode
	ve *vecEnv
}

func (f *vecFilter) cols() []algebra.ColumnMeta { return f.in.cols() }

func (f *vecFilter) next() (*vec.Batch, error) {
	for {
		b, err := f.in.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		pv, err := evalVec(f.op.Filter, f.ve, b, nil)
		if err != nil {
			return nil, err
		}
		sel, err := truthySel(pv, b.N)
		if err != nil {
			return nil, fmt.Errorf("exec: WHERE predicate: %w", err)
		}
		if len(sel) == b.N {
			return b, nil
		}
		if len(sel) > 0 {
			return gatherBatch(b, sel), nil
		}
	}
}

// vecProject computes each projection definition as one vector per batch.
type vecProject struct {
	op  *algebra.Project
	in  vecNode
	out []algebra.ColumnMeta
	ve  *vecEnv
}

func (p *vecProject) cols() []algebra.ColumnMeta { return p.out }

func (p *vecProject) next() (*vec.Batch, error) {
	b, err := p.in.next()
	if err != nil {
		return nil, err
	}
	if b == nil {
		return nil, nil
	}
	nb := &vec.Batch{N: b.N, Cols: make([]*vec.Vec, len(p.op.Defs))}
	for i, d := range p.op.Defs {
		v, err := evalVec(d.Expr, p.ve, b, nil)
		if err != nil {
			return nil, err
		}
		nb.Cols[i] = v
	}
	return nb, nil
}

// vecJoin joins batch streams. The right (build) side is drained into one
// concatenated columnar batch; equi-key joins probe a hash table built
// over it, other joins fall back to a per-left-row nested loop over the
// same batch. Output order matches the row engine: left order × bucket
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
	lKeys    []int
	rKeys    []int
	residual algebra.Scalar

	// The hash table is a chain layout: the open-addressing table holds
	// only the first build row per key and chainNext threads the rest, so
	// building allocates two flat arrays and nothing per key. Chains are
	// threaded in ascending row order, preserving the bucket-insertion
	// output order contract. intKeys records whether table keys are raw
	// int64 payloads (single typed-INT key: bucket = equality, no confirm
	// pass) or composite hashes (probe confirms with vecKeysEqual).
	init         bool
	rt           *vec.Batch
	build        *joinTable
	intKeys      bool
	chainNext    []int32
	rightMatched []bool
	pairVE       *vecEnv
	keyBuf       []types.Value

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
		j.keyBuf = make([]types.Value, len(lKeys))
	}
	return j
}

func (j *vecJoin) cols() []algebra.ColumnMeta { return j.outCols }

func (j *vecJoin) next() (*vec.Batch, error) {
	if !j.init {
		if err := j.buildRight(); err != nil {
			return nil, err
		}
		j.init = true
	}
	for !j.leftDone {
		lb, err := j.left.next()
		if err != nil {
			return nil, err
		}
		if lb == nil {
			j.leftDone = true
			break
		}
		ob, err := j.joinBatch(lb)
		if err != nil {
			return nil, err
		}
		if ob != nil && ob.N > 0 {
			return ob, nil
		}
	}
	if j.op.Kind == algebra.JoinFullOuter && !j.tailDone {
		j.tailDone = true
		if ob := j.unmatchedRight(); ob != nil && ob.N > 0 {
			return ob, nil
		}
	}
	return nil, nil
}

// buildRight drains the build side into one concatenated batch and, for
// equi-key joins, a hash table over the non-NULL keys (SQL equality never
// matches NULLs, so NULL-keyed rows stay out of the table — they still
// surface through full-outer unmatched emission).
func (j *vecJoin) buildRight() error {
	rCols := len(j.pairCols) - j.lWidth
	j.rt = &vec.Batch{Cols: make([]*vec.Vec, rCols)}
	for c := range j.rt.Cols {
		j.rt.Cols[c] = &vec.Vec{}
	}
	for {
		b, err := j.right.next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for c := range b.Cols {
			j.rt.Cols[c].Extend(b.Cols[c])
		}
		j.rt.N += b.N
	}
	j.rightMatched = make([]bool, j.rt.N)
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
	for ri := j.rt.N - 1; ri >= 0; ri-- {
		if k, ok := vecKeyOf(j.rt, ri, j.rKeys, j.keyBuf); ok {
			j.build.insert(k, int32(ri), j.chainNext)
		}
	}
	return nil
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

// probeInt probes the typed-INT build table for one left batch.
func (j *vecJoin) probeInt(lb *vec.Batch) (pl, pr []int32) {
	pl = make([]int32, 0, lb.N)
	pr = make([]int32, 0, lb.N)
	kv := lb.Cols[j.lKeys[0]]
	if !kv.Mixed {
		switch kv.Kind {
		case types.KindInt:
			for li := 0; li < lb.N; li++ {
				if kv.IsNull(li) {
					continue
				}
				if head, ok := j.build.find(uint64(kv.I64[li])); ok {
					for ri := head; ri >= 0; ri = j.chainNext[ri] {
						pl = append(pl, int32(li))
						pr = append(pr, ri)
					}
				}
			}
			return pl, pr
		case types.KindFloat:
			for li := 0; li < lb.N; li++ {
				if kv.IsNull(li) {
					continue
				}
				k, ok := intKeyFromFloat(kv.F64[li])
				if !ok {
					continue
				}
				if head, ok := j.build.find(uint64(k)); ok {
					for ri := head; ri >= 0; ri = j.chainNext[ri] {
						pl = append(pl, int32(li))
						pr = append(pr, ri)
					}
				}
			}
			return pl, pr
		default:
			// DATE/BIT/STRING/all-NULL probes are never comparable with a
			// BIGINT build key, so nothing matches.
			return nil, nil
		}
	}
	for li := 0; li < lb.N; li++ {
		v := kv.At(li)
		var k int64
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
		if head, ok := j.build.find(uint64(k)); ok {
			for ri := head; ri >= 0; ri = j.chainNext[ri] {
				pl = append(pl, int32(li))
				pr = append(pr, ri)
			}
		}
	}
	return pl, pr
}

// joinBatch produces one output batch for one left batch (possibly empty
// for semi/anti/filtered joins; the caller skips empties).
func (j *vecJoin) joinBatch(lb *vec.Batch) (*vec.Batch, error) {
	var pl, pr []int32 // matched pairs, left-major
	if j.useHash {
		if j.intKeys {
			pl, pr = j.probeInt(lb)
		} else {
			for li := 0; li < lb.N; li++ {
				k, ok := vecKeyOf(lb, li, j.lKeys, j.keyBuf)
				if !ok {
					continue
				}
				head, hit := j.build.find(k)
				if !hit {
					continue
				}
				for ri := head; ri >= 0; ri = j.chainNext[ri] {
					if vecKeysEqual(lb, li, j.lKeys, j.rt, int(ri), j.rKeys) {
						pl = append(pl, int32(li))
						pr = append(pr, ri)
					}
				}
			}
		}
		if j.residual != nil && len(pl) > 0 {
			var err error
			pl, pr, err = j.filterPairs(lb, pl, pr, j.residual)
			if err != nil {
				return nil, err
			}
		}
	} else {
		// Nested loop, one left row at a time so the candidate pair batch
		// stays bounded by the build side's size.
		cpl := make([]int32, j.rt.N)
		cpr := make([]int32, j.rt.N)
		for ri := range cpr {
			cpr[ri] = int32(ri)
		}
		for li := 0; li < lb.N; li++ {
			for i := range cpl {
				cpl[i] = int32(li)
			}
			kl, kr := cpl, cpr
			if j.op.On != nil && len(kl) > 0 {
				var err error
				kl, kr, err = j.filterPairs(lb, kl, kr, j.op.On)
				if err != nil {
					return nil, err
				}
			}
			pl = append(pl, kl...)
			pr = append(pr, kr...)
		}
	}
	return j.emit(lb, pl, pr), nil
}

// filterPairs keeps the candidate (left, right) pairs whose predicate is
// TRUE, evaluated over the concatenated pair schema — residuals see the
// full pair row even when the join's output is left-only.
func (j *vecJoin) filterPairs(lb *vec.Batch, pl, pr []int32, on algebra.Scalar) ([]int32, []int32, error) {
	pb := &vec.Batch{N: len(pl), Cols: make([]*vec.Vec, 0, len(j.pairCols))}
	for _, v := range lb.Cols {
		pb.Cols = append(pb.Cols, v.Gather(pl))
	}
	for _, v := range j.rt.Cols {
		pb.Cols = append(pb.Cols, v.Gather(pr))
	}
	if j.pairVE == nil {
		j.pairVE = newVecEnv(j.pairCols)
	}
	pv, err := evalVec(on, j.pairVE, pb, nil)
	if err != nil {
		return nil, nil, err
	}
	sel, err := truthySel(pv, pb.N)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: join predicate: %w", err)
	}
	npl := make([]int32, len(sel))
	npr := make([]int32, len(sel))
	for oi, s := range sel {
		npl[oi] = pl[s]
		npr[oi] = pr[s]
	}
	return npl, npr, nil
}

// emit walks the left batch in row order and materializes the join kind's
// output from the matched pairs (which are left-major).
func (j *vecJoin) emit(lb *vec.Batch, pl, pr []int32) *vec.Batch {
	var lsel, rsel []int32 // rsel entry -1 = NULL right padding
	switch j.op.Kind {
	case algebra.JoinSemi, algebra.JoinAnti, algebra.JoinLeftOuter, algebra.JoinFullOuter:
		p := 0
		for li := 0; li < lb.N; li++ {
			start := p
			for p < len(pl) && pl[p] == int32(li) {
				j.rightMatched[pr[p]] = true
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
		nv := &vec.Vec{}
		for range rsel {
			nv.AppendNull()
		}
		out.Cols = append(out.Cols, nv)
	}
	for _, v := range j.rt.Cols {
		out.Cols = append(out.Cols, v.Gather(rsel))
	}
	return out
}

// gatherPad gathers with -1 selections producing NULL (outer padding).
func gatherPad(v *vec.Vec, sel []int32) *vec.Vec {
	pad := false
	for _, s := range sel {
		if s < 0 {
			pad = true
			break
		}
	}
	if !pad {
		return v.Gather(sel)
	}
	out := &vec.Vec{}
	for _, s := range sel {
		if s < 0 {
			out.AppendNull()
		} else {
			out.Append(v.At(int(s)))
		}
	}
	return out
}

// vecKeyOf extracts one row's join key hash; ok is false when any key
// column is NULL. The fold is the engine-local allocation-free FNV with
// the same Equal ⇒ equal-hash normalization as types.HashRowKey, so the
// confirmed matches (and therefore results) are identical — only bucket
// assignment differs, which is unobservable.
func vecKeyOf(b *vec.Batch, row int, idx []int, buf []types.Value) (uint64, bool) {
	for i, p := range idx {
		v := b.Cols[p].At(row)
		if v.IsNull() {
			return 0, false
		}
		buf[i] = v
	}
	return hashRow(buf), true
}

// vecKeysEqual confirms a hash match with real comparisons, mirroring the
// row engine's keysEqual (incomparable kinds simply do not match).
func vecKeysEqual(lb *vec.Batch, li int, lKeys []int, rb *vec.Batch, ri int, rKeys []int) bool {
	for i := range lKeys {
		av, bv := lb.Cols[lKeys[i]].At(li), rb.Cols[rKeys[i]].At(ri)
		if av.IsNull() || bv.IsNull() {
			return false
		}
		if !types.Comparable(av.Kind(), bv.Kind()) || types.Compare(av, bv) != 0 {
			return false
		}
	}
	return true
}

// vecGroup aggregates batch streams. Aggregate arguments are evaluated
// one vector per batch; accumulation reuses the row engine's aggState
// (shared addValue), and groups emit in first-seen order.
type vecGroup struct {
	op  *algebra.GroupBy
	in  vecNode
	out []algebra.ColumnMeta
	ve  *vecEnv

	built bool
	rows  []types.Row
	pos   int
}

func (g *vecGroup) cols() []algebra.ColumnMeta { return g.out }

type vecGroupState struct {
	keyVals types.Row
	aggs    []*aggState
	idx     int32 // position in first-seen order
}

// groupKeyMatch compares one candidate group's key against batch row i,
// with typed payload fast paths. Semantics are exactly types.Equal's:
// NULL keys group together, numerics compare float-coerced across kinds
// (the cross-kind case falls back to types.Equal), and float equality is
// Compare==0 — NOT Go == — so NaN keys group the way the row engine
// groups them.
func groupKeyMatch(cand *vecGroupState, b *vec.Batch, keyPos []int, i int) bool {
	for ki, p := range keyPos {
		c := b.Cols[p]
		kv := cand.keyVals[ki]
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
	if s.sum.Kind() == types.KindFloat {
		s.sum = types.NewFloat(s.sum.Float() + x)
		return nil
	}
	return s.addValue(types.NewFloat(x))
}

func (g *vecGroup) next() (*vec.Batch, error) {
	if !g.built {
		if err := g.aggregate(); err != nil {
			return nil, err
		}
		g.built = true
	}
	if g.pos >= len(g.rows) {
		return nil, nil
	}
	hi := g.pos + vec.BatchSize
	if hi > len(g.rows) {
		hi = len(g.rows)
	}
	b := &vec.Batch{N: hi - g.pos, Cols: make([]*vec.Vec, len(g.out))}
	for c := range g.out {
		col := &vec.Vec{}
		for i := g.pos; i < hi; i++ {
			col.Append(g.rows[i][c])
		}
		b.Cols[c] = col
	}
	g.pos = hi
	return b, nil
}

func (g *vecGroup) aggregate() error {
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
			return fmt.Errorf("exec: group key c%d missing", k)
		}
	}
	groups := map[uint64][]*vecGroupState{}
	var order []*vecGroupState
	argVecs := make([]*vec.Vec, len(g.op.Aggs))
	argMode := make([]aggVecMode, len(g.op.Aggs))
	var hs []uint64
	var gids []int32
	for {
		b, err := g.in.next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for ai, a := range g.op.Aggs {
			if a.Arg == nil {
				argMode[ai] = aggVecStar
				continue
			}
			v, err := evalVec(a.Arg, g.ve, b, nil)
			if err != nil {
				return err
			}
			argVecs[ai] = v
			argMode[ai] = aggVecModeOf(a, v)
		}
		// Key hashes fold column-wise over the whole batch, reusing one
		// scratch slice — no per-row hasher or key-row allocation.
		if cap(hs) < b.N {
			hs = make([]uint64, b.N)
			gids = make([]int32, b.N)
		}
		hs = hs[:b.N]
		gids = gids[:b.N]
		for i := range hs {
			hs[i] = fnvOffset64
		}
		for _, p := range keyPos {
			foldVecHash(b.Cols[p], b.N, hs)
		}
		// Pass 1: resolve every row to its group in first-seen order.
		for i := 0; i < b.N; i++ {
			var gs *vecGroupState
			for _, cand := range groups[hs[i]] {
				if groupKeyMatch(cand, b, keyPos, i) {
					gs = cand
					break
				}
			}
			if gs == nil {
				keyVals := make(types.Row, len(keyPos))
				for ki, p := range keyPos {
					keyVals[ki] = b.Cols[p].At(i)
				}
				gs = &vecGroupState{keyVals: keyVals, idx: int32(len(order))}
				for _, a := range g.op.Aggs {
					gs.aggs = append(gs.aggs, newAggState(a))
				}
				groups[hs[i]] = append(groups[hs[i]], gs)
				order = append(order, gs)
			}
			gids[i] = gs.idx
		}
		// Pass 2: accumulate one aggregate column at a time. Error choice
		// can differ from the row engine when distinct (row, agg) cells
		// would each error — presence cannot (see the vecexpr.go header).
		for ai := range g.op.Aggs {
			switch argMode[ai] {
			case aggVecStar, aggVecCountDense:
				// COUNT(*) / COUNT over a NULL-free vector: pure tallies.
				for _, gid := range gids {
					order[gid].aggs[ai].count++
				}
			case aggVecSumFloat:
				v := argVecs[ai]
				if v.Nulls == nil {
					for i, gid := range gids {
						if err := order[gid].aggs[ai].sumFloat(v.F64[i]); err != nil {
							return err
						}
					}
				} else {
					for i, gid := range gids {
						if v.IsNull(i) {
							continue
						}
						if err := order[gid].aggs[ai].sumFloat(v.F64[i]); err != nil {
							return err
						}
					}
				}
			default:
				v := argVecs[ai]
				for i, gid := range gids {
					if err := order[gid].aggs[ai].addValue(v.At(i)); err != nil {
						return err
					}
				}
			}
		}
	}
	// A scalar aggregate over empty input yields one all-default row.
	if len(g.op.Keys) == 0 && len(order) == 0 {
		gs := &vecGroupState{}
		for _, a := range g.op.Aggs {
			gs.aggs = append(gs.aggs, newAggState(a))
		}
		order = append(order, gs)
	}
	for _, gs := range order {
		row := make(types.Row, 0, len(gs.keyVals)+len(gs.aggs))
		row = append(row, gs.keyVals...)
		for _, a := range gs.aggs {
			row = append(row, a.result())
		}
		g.rows = append(g.rows, row)
	}
	return nil
}

// vecSort drains its input, sorts with the engine-wide MergeKey
// comparator (stable; NULLS FIRST ascending / LAST descending), applies
// TOP, and re-emits in batches.
type vecSort struct {
	op *algebra.Sort
	in vecNode

	built bool
	rows  []types.Row
	pos   int
}

func (s *vecSort) cols() []algebra.ColumnMeta { return s.in.cols() }

func (s *vecSort) next() (*vec.Batch, error) {
	if !s.built {
		for {
			b, err := s.in.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			s.rows = b.AppendRows(s.rows)
		}
		keys, err := sortMergeKeys(s.op.Keys, s.in.cols())
		if err != nil {
			return nil, err
		}
		if err := SortRows(s.rows, keys); err != nil {
			return nil, fmt.Errorf("exec: ORDER BY key: %w", err)
		}
		if s.op.Top > 0 && int64(len(s.rows)) > s.op.Top {
			s.rows = s.rows[:s.op.Top]
		}
		s.built = true
	}
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	hi := s.pos + vec.BatchSize
	if hi > len(s.rows) {
		hi = len(s.rows)
	}
	inCols := s.in.cols()
	b := &vec.Batch{N: hi - s.pos, Cols: make([]*vec.Vec, len(inCols))}
	for c := range inCols {
		col := &vec.Vec{}
		for i := s.pos; i < hi; i++ {
			col.Append(s.rows[i][c])
		}
		b.Cols[c] = col
	}
	s.pos = hi
	return b, nil
}

// vecUnion streams the left input to exhaustion, then the right.
type vecUnion struct {
	l, r     vecNode
	leftDone bool
}

func (u *vecUnion) cols() []algebra.ColumnMeta { return u.l.cols() }

func (u *vecUnion) next() (*vec.Batch, error) {
	if !u.leftDone {
		b, err := u.l.next()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		u.leftDone = true
	}
	return u.r.next()
}
