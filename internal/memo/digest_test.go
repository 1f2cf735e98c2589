package memo_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/memo"
	"pdwqo/internal/memoxml"
	"pdwqo/internal/normalize"
	"pdwqo/internal/qgen"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/tpch"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/digests.txt from the memos this build explores")

func normalized(t testing.TB, shell *catalog.Shell, sql string) *algebra.Tree {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	b := algebra.NewBinder(shell)
	bound, err := b.Bind(sel)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := normalize.New(b).Normalize(bound)
	if err != nil {
		t.Fatal(err)
	}
	return norm
}

type digestCase struct {
	name  string
	shell *catalog.Shell
	tree  *algebra.Tree
}

// digestCases is the 22 TPC-H queries and the whole generated corpus, 4 to
// 100 relations over every topology.
func digestCases(t testing.TB) []digestCase {
	t.Helper()
	shell, _, err := tpch.BuildShell(0.002, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	var out []digestCase
	for _, q := range tpch.Queries() {
		out = append(out, digestCase{q.Name, shell, normalized(t, shell, q.SQL)})
	}
	for _, spec := range qgen.Corpus() {
		q, err := qgen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := q.Shell()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digestCase{q.Name, qs, normalized(t, qs, q.SQL)})
	}
	return out
}

// TestMemoDigests holds the serial memo to a record: group and expression
// counts, whether the budget ran out, and the SHA-256 of the exported
// document — so insertion order, group ids and the conjunct order inside
// every join condition are all pinned — at the default budget and at two
// small ones that stop exploration part-way. The group counts and budget
// outcomes date from 06662c2, before exploration moved onto interned
// conjunct ids; the expression counts and digests were re-recorded when
// the memo stopped holding physical expressions, each count the logical
// expressions of the memo before.
func TestMemoDigests(t *testing.T) {
	var got strings.Builder
	for _, c := range digestCases(t) {
		for _, budget := range []int{200, 1000, memo.DefaultBudget} {
			m, err := memo.OptimizeSeeded(c.shell, c.tree, budget)
			if err != nil {
				t.Fatalf("%s budget %d: %v", c.name, budget, err)
			}
			doc, err := memoxml.Encode(m)
			if err != nil {
				t.Fatalf("%s budget %d: %v", c.name, budget, err)
			}
			fmt.Fprintf(&got, "%s %d groups=%d exprs=%d exhausted=%v sha256=%x\n",
				c.name, budget, m.NumGroups(), m.NumExprs(), m.Exhausted(), sha256.Sum256(doc))
		}
	}
	const path = "testdata/digests.txt"
	if *updateDigests {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d digest lines, record has %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			t.Errorf("memo changed:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
