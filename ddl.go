package pdwqo

import (
	"fmt"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/sqlparser"
)

// NewShellFromDDL builds a shell database for an n-node appliance from PDW
// CREATE TABLE statements:
//
//	CREATE TABLE t (a BIGINT PRIMARY KEY, b VARCHAR(20), d DATE)
//	WITH (DISTRIBUTION = HASH(a))
//
// Statistics are attached later by Open (computed per node and merged, the
// §2.2 path) when data is loaded.
func NewShellFromDDL(nodes int, ddl ...string) (*Shell, error) {
	shell := catalog.NewShell(nodes)
	for _, stmtSQL := range ddl {
		stmt, err := sqlparser.Parse(stmtSQL)
		if err != nil {
			return nil, err
		}
		ct, ok := stmt.(*sqlparser.CreateTableStmt)
		if !ok {
			return nil, fmt.Errorf("pdwqo: expected CREATE TABLE, got %T", stmt)
		}
		tbl, err := algebra.BindCreateTable(ct)
		if err != nil {
			return nil, err
		}
		if err := shell.AddTable(tbl); err != nil {
			return nil, err
		}
	}
	return shell, nil
}
