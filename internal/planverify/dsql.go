package planverify

import (
	"strings"

	"pdwqo/internal/catalog"
	"pdwqo/internal/core"
	"pdwqo/internal/cost"
	"pdwqo/internal/dsql"
)

// CheckDSQL verifies dataflow soundness over the serial step sequence:
// step shape and ordering, temp-table def-before-use, orphan temps, and
// base-table existence against the shell catalog. Whether the steps do
// what the plan tree says — each move step's kind, routing column and
// execution placement — is transval's to check, so the plan argument is
// unused.
func CheckDSQL(p *dsql.Plan, _ *core.Plan, shell *catalog.Shell) []Violation {
	if p == nil || len(p.Steps) == 0 {
		return []Violation{violation(CodeReturnMissing, "plan has no steps")}
	}
	var out []Violation
	out = append(out, checkStepOrder(p)...)
	out = append(out, checkTempFlow(p)...)
	out = append(out, checkMoveSteps(p)...)
	if shell != nil {
		out = append(out, checkBaseTables(p, shell)...)
	}
	return out
}

// checkStepOrder requires dense sequential IDs and a single, final
// Return step.
func checkStepOrder(p *dsql.Plan) []Violation {
	var out []Violation
	returns := 0
	for i, s := range p.Steps {
		if s.ID != i {
			out = append(out, stepViolation(CodeStepIDOrder, s.ID,
				"step at position %d carries id %d", i, s.ID))
		}
		if s.Kind == dsql.StepReturn {
			returns++
			if i != len(p.Steps)-1 {
				out = append(out, stepViolation(CodeReturnNotLast, s.ID,
					"return step at position %d of %d", i, len(p.Steps)))
			}
		}
	}
	switch {
	case returns == 0:
		out = append(out, violation(CodeReturnMissing, "no return step in %d steps", len(p.Steps)))
	case returns > 1:
		out = append(out, violation(CodeReturnNotLast, "%d return steps", returns))
	}
	return out
}

// checkTempFlow verifies temp-table dataflow: unique destinations,
// def strictly before use, no dangling references, no orphans.
func checkTempFlow(p *dsql.Plan) []Violation {
	var out []Violation
	defined := map[string]int{} // temp name → defining step position
	for i, s := range p.Steps {
		if s.Kind != dsql.StepMove || s.Dest == "" {
			continue
		}
		if prev, dup := defined[s.Dest]; dup {
			out = append(out, stepViolation(CodeTempRedefined, s.ID,
				"destination %s already produced by step %d", s.Dest, prev))
			continue
		}
		defined[s.Dest] = i
	}
	used := map[string]bool{}
	for i, s := range p.Steps {
		for _, ref := range tempRefs(s.SQL) {
			used[ref] = true
			def, ok := defined[ref]
			switch {
			case !ok:
				out = append(out, stepViolation(CodeTempUnknown, s.ID,
					"reads %s which no step produces", ref))
			case def >= i:
				out = append(out, stepViolation(CodeTempUseBeforeDef, s.ID,
					"reads %s produced later by step %d", ref, p.Steps[def].ID))
			}
		}
	}
	// Orphans in step order, so one plan always renders one report.
	for i, s := range p.Steps {
		if def, ok := defined[s.Dest]; ok && def == i && !used[s.Dest] {
			out = append(out, stepViolation(CodeTempOrphan, s.ID,
				"produces %s which no step reads", s.Dest))
		}
	}
	return out
}

// checkMoveSteps verifies each move step's fields against its kind.
func checkMoveSteps(p *dsql.Plan) []Violation {
	var out []Violation
	for _, s := range p.Steps {
		if s.Kind != dsql.StepMove {
			if s.Dest != "" {
				out = append(out, stepViolation(CodeMoveStepShape, s.ID,
					"return step carries destination %s", s.Dest))
			}
			continue
		}
		if s.Dest == "" || len(s.DestCols) == 0 {
			out = append(out, stepViolation(CodeMoveStepShape, s.ID,
				"move step without destination schema"))
			continue
		}
		if !s.Idempotent {
			// A DMS step materializes into a private temp table; marking
			// it non-retryable breaks the engine's recovery contract.
			out = append(out, stepViolation(CodeMoveStepShape, s.ID,
				"move step not marked idempotent"))
		}
		hashing := s.MoveKind == cost.Shuffle || s.MoveKind == cost.Trim
		switch {
		case hashing && s.HashCol == "":
			out = append(out, stepViolation(CodeMoveStepShape, s.ID,
				"%v without a routing column", s.MoveKind))
		case hashing && !hasDestCol(s, s.HashCol):
			out = append(out, stepViolation(CodeMoveStepShape, s.ID,
				"routing column %s absent from destination %s", s.HashCol, s.Dest))
		case !hashing && s.HashCol != "":
			out = append(out, stepViolation(CodeMoveStepShape, s.ID,
				"%v carries routing column %s", s.MoveKind, s.HashCol))
		}
	}
	return out
}

// checkBaseTables resolves every [dbo] reference against the catalog.
func checkBaseTables(p *dsql.Plan, shell *catalog.Shell) []Violation {
	var out []Violation
	for _, s := range p.Steps {
		for _, name := range bracketRefs(s.SQL, "[dbo].[") {
			if shell.Table(name) == nil {
				out = append(out, stepViolation(CodeUnknownBaseTable, s.ID,
					"references [dbo].[%s] which the catalog does not define", name))
			}
		}
	}
	return out
}

func hasDestCol(s dsql.Step, name string) bool {
	for _, c := range s.DestCols {
		if c.Name == name {
			return true
		}
	}
	return false
}

// tempRefs extracts temp-table names referenced as [tempdb].[NAME].
func tempRefs(sql string) []string { return bracketRefs(sql, "[tempdb].[") }

// bracketRefs extracts the bracketed identifiers following each
// occurrence of prefix (e.g. "[dbo].[" or "[tempdb].[").
func bracketRefs(sql, prefix string) []string {
	var out []string
	for rest := sql; ; {
		i := strings.Index(rest, prefix)
		if i < 0 {
			return out
		}
		rest = rest[i+len(prefix):]
		j := strings.IndexByte(rest, ']')
		if j < 0 {
			return out
		}
		out = append(out, rest[:j])
		rest = rest[j+1:]
	}
}
