package pdwqo_test

import (
	"math/rand"
	"strings"
	"testing"

	"pdwqo"
	"pdwqo/internal/dsql"
	"pdwqo/internal/loadgen"
	"pdwqo/internal/normalize"
	"pdwqo/internal/tpch"
)

// TestMarkerTemplatesCompile is the corpus check behind the plan cache's
// one survival rule. Over the TPC-H queries, the load generator's mix and
// a seeded random sample, every query that compiles cold also compiles
// through its marker template on the first try (no cold retry), and every
// template the rule marks rebindable carries each slot's placeholder in
// its DSQL.
func TestMarkerTemplatesCompile(t *testing.T) {
	db, err := pdwqo.OpenTPCH(0.001, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	var corpus []string
	for _, q := range tpch.Queries() {
		corpus = append(corpus, q.SQL)
	}
	corpus = append(corpus, loadgen.DefaultMix...)
	n := 300
	if testing.Short() {
		n = 60
	}
	r := rand.New(rand.NewSource(20261018))
	for i := 0; i < n; i++ {
		corpus = append(corpus, tpch.RandomQuery(r))
	}
	compiled, rebindable := 0, 0
	for _, sql := range corpus {
		if _, _, err := db.CompileForCache(sql, nil); err != nil {
			continue
		}
		compiled++
		pq, err := normalize.Parameterize(sql)
		if err != nil {
			t.Fatalf("parameterize: %v\nSQL: %s", err, sql)
		}
		plan, ok, err := db.CompileForCache(sql, pq)
		if err != nil {
			t.Errorf("marker template failed: %v\nSQL: %s", err, sql)
			continue
		}
		if !ok {
			continue
		}
		rebindable++
		text := plan.DSQL.String()
		for slot := range pq.Lits {
			if !strings.Contains(text, dsql.Placeholder(slot)) {
				t.Errorf("rebindable template lost slot %d\nSQL: %s\n%s", slot, sql, text)
			}
		}
	}
	t.Logf("%d of %d queries compile cold; %d templates rebindable", compiled, len(corpus), rebindable)
	if rebindable == 0 {
		t.Error("no template was rebindable; the check exercised nothing")
	}
}
