package exec

import "pdwqo/internal/algebra"

// Stats tallies the local work one vectorized run (RunVecStats,
// RunColumns) performed: how many operator nodes were evaluated, how many
// rows each produced (intermediates included) and in how many batches.
// The engine sums one Stats per compute node into the step's trace span,
// making node-local evaluation effort visible next to the DMS bytes the
// cost model prices.
type Stats struct {
	Ops      int64 // operator nodes evaluated
	Rows     int64 // rows produced across all operators
	ScanRows int64 // rows produced by base-table scans (Get/Values)
	// Batches counts the column batches operators emitted, the
	// denominator that turns Rows into observed batch occupancy.
	Batches int64
}

// Merge adds o's tallies into s.
func (s *Stats) Merge(o Stats) {
	s.Ops += o.Ops
	s.Rows += o.Rows
	s.ScanRows += o.ScanRows
	s.Batches += o.Batches
}

// recordCounts counts one evaluated operator node, producing rows across
// batches. A nil receiver is the disabled collector, so the untraced
// execution path pays only this nil check.
func (s *Stats) recordCounts(op algebra.Operator, rows, batches int64) {
	if s == nil {
		return
	}
	s.Ops++
	s.Rows += rows
	s.Batches += batches
	switch op.(type) {
	case *algebra.Get, *algebra.Values:
		s.ScanRows += rows
	}
}
