// Package serverdiff certifies the query server's wire path against the
// library path: the same appliance, the same corpus, byte-identical
// results. It lives in its own directory (rather than in
// internal/difftest proper) so the wire sweep compiles into its own test
// binary with its own -timeout budget. The comparison rule is
// internal/rowcmp's Exact; the leak check and the chaos configuration are
// internal/difftest's.
package serverdiff

import (
	"context"
	"errors"
	"fmt"

	"pdwqo"
	"pdwqo/internal/difftest"
	"pdwqo/internal/rowcmp"
	"pdwqo/internal/server"
)

// ServerDiff certifies the wire path for one case: the query is executed
// through an open client connection (session → admission → shared plan
// cache → engine → result frames) and through the library path on the
// same appliance, and the two result relations must match byte-for-byte —
// same column names, same rows, same order, same rendered values. The
// server streams rows as strings, which is the form rowcmp compares.
func ServerDiff(db *pdwqo.DB, c *server.Client, cs difftest.Case) error {
	wire, err := c.Query(context.Background(), cs.SQL)
	if err != nil {
		return fmt.Errorf("%s: wire execute: %w", cs.Name, err)
	}
	plan, err := db.Optimize(cs.SQL, pdwqo.Options{})
	if err != nil {
		return fmt.Errorf("%s: library optimize: %w", cs.Name, err)
	}
	ref, err := db.ExecutePlan(plan)
	if err != nil {
		return fmt.Errorf("%s: library execute: %w", cs.Name, err)
	}
	w := rowcmp.Relation{Name: "wire", Columns: wire.Columns, Rows: wire.Rows}
	if err := rowcmp.Exact.Compare(w, rowcmp.Exact.Render("library", ref.Columns, ref.Rows)); err != nil {
		return fmt.Errorf("%s: %w", cs.Name, err)
	}
	return nil
}

// ServerChaos is the wire-path analogue of difftest's chaos runner, with
// its own retry loop on one connection: execute the case over a
// connection to a server whose queries run under a seeded random fault
// plan with retries. If the retries absorb every fault the wire result
// must be byte-identical to the fault-free library reference;
// if they don't, the client must observe a typed execution error — never
// a protocol wedge or a dead session. Either way no temp or staging table
// may leak. The server is built for the case over the shared DB, so the
// fault plan is nobody else's.
func ServerChaos(db *pdwqo.DB, cs difftest.Case, seed int64, maxRetries int) error {
	// Fault-free reference first.
	plan, err := db.Optimize(cs.SQL, pdwqo.Options{})
	if err != nil {
		return fmt.Errorf("%s: optimize: %w", cs.Name, err)
	}
	ref, err := db.ExecutePlan(plan)
	if err != nil {
		return fmt.Errorf("%s: fault-free reference execute: %w", cs.Name, err)
	}
	lib := rowcmp.Exact.Render("library", ref.Columns, ref.Rows)

	cfg := difftest.ChaosConfig(db, plan, 0, seed, maxRetries)
	srv := server.New(db, server.Config{MaxConcurrent: 4, MaxQueue: 64, Exec: cfg})
	defer srv.Shutdown()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("%s: listen: %w", cs.Name, err)
	}
	c, err := server.Dial(addr.String())
	if err != nil {
		return fmt.Errorf("%s: dial: %w", cs.Name, err)
	}
	defer c.Close()

	// Every injected fault spends one unit of a finite firing budget, so a
	// session that survives failed queries must reach a fault-free run
	// within budget+1 queries on the same connection.
	budget := 0
	for _, f := range cfg.Faults.Rules() {
		budget += max(f.Times, 1)
	}
	for attempt := 0; attempt <= budget; attempt++ {
		wire, werr := c.Query(context.Background(), cs.SQL)
		if leaks := difftest.LeakedTables(db); len(leaks) > 0 {
			return fmt.Errorf("%s: leaked tables after wire chaos run (seed %d): %v", cs.Name, seed, leaks)
		}
		if werr == nil {
			w := rowcmp.Relation{Name: "wire", Columns: wire.Columns, Rows: wire.Rows}
			if derr := rowcmp.Exact.Compare(w, lib); derr != nil {
				return fmt.Errorf("%s: chaos (seed %d, retries %d, query %d on the connection): %w", cs.Name, seed, maxRetries, attempt, derr)
			}
			return nil
		}
		var se *server.Error
		if !errors.As(werr, &se) || se.Code != server.CodeExec {
			return fmt.Errorf("%s: chaos failure (seed %d, query %d on the connection) is not a typed exec error: %w", cs.Name, seed, attempt, werr)
		}
	}
	return fmt.Errorf("%s: session never recovered (seed %d): %d queries failed against a fault budget of %d",
		cs.Name, seed, budget+1, budget)
}
