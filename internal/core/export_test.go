package core

// Hooks for the external tests of this package.

// EnumCorpus is the decoded TPC-H and qgen memos the tests enumerate.
var EnumCorpus = enumCorpus

// RederiveInteresting runs Figure 4 step 04 again over an optimized memo.
func (o *Optimizer) RederiveInteresting() { o.deriveInteresting() }
