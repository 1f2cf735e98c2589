// Command memoviz renders the optimizer's intermediate artifacts for a
// query in the style of the paper's Figure 3: the normalized logical tree,
// the serial MEMO (groups of logical expressions), the
// exported XML (optionally), and the augmented distributed plan.
//
// Usage:
//
//	memoviz [-sf 0.01] [-nodes 8] [-xml] (-q "SELECT ..." | -tpch q20)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pdwqo"
)

func main() {
	var (
		sf       = flag.Float64("sf", 0.01, "TPC-H scale factor")
		nodes    = flag.Int("nodes", 8, "compute nodes")
		seed     = flag.Int64("seed", 42, "generator seed")
		query    = flag.String("q", "", "SQL text")
		tpchName = flag.String("tpch", "", "named TPC-H query")
		showXML  = flag.Bool("xml", false, "dump the exported MEMO XML")
	)
	flag.Parse()

	sql := *query
	if *tpchName != "" {
		var ok bool
		sql, ok = pdwqo.TPCHQuery(*tpchName)
		if !ok {
			fail(fmt.Errorf("unknown TPC-H query %q", *tpchName))
		}
	}
	if sql == "" {
		// The paper's Figure 3 query by default.
		sql = `SELECT * FROM CUSTOMER C, ORDERS O
		       WHERE C.c_custkey = O.o_custkey AND O.o_totalprice > 1000`
	}

	db, err := pdwqo.OpenTPCH(*sf, *nodes, *seed)
	if err != nil {
		fail(err)
	}
	plan, err := db.Optimize(sql, pdwqo.Options{})
	if err != nil {
		fail(err)
	}

	fmt.Println("== normalized logical tree ==")
	fmt.Println(plan.Normalized)
	fmt.Println("== serial MEMO (Figure 3c style) ==")
	fmt.Println(plan.Memo)
	if *showXML {
		fmt.Println("== exported MEMO XML ==")
		fmt.Println(indentXML(plan.MemoXML))
	}
	out, err := plan.ExplainText()
	if err != nil {
		fail(err)
	}
	fmt.Println("== augmented distributed plan (Figure 3d) and DSQL (Figure 3e) ==")
	fmt.Println(out)
}

// indentXML indents the exported document, which holds one element per
// line and no leading space, by nesting depth.
func indentXML(doc []byte) string {
	var b strings.Builder
	depth := 0
	for _, line := range strings.Split(strings.TrimSpace(string(doc)), "\n") {
		if strings.HasPrefix(line, "</") {
			depth--
		}
		b.WriteString(strings.Repeat("  ", depth) + line + "\n")
		// A line that only opens an element: not the prolog, not self-closed,
		// and not closed on the same line (<Key>1,2</Key>).
		if !strings.HasPrefix(line, "<?") && !strings.HasSuffix(line, "/>") && !strings.Contains(line, "</") {
			depth++
		}
	}
	return b.String()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "memoviz:", err)
	os.Exit(1)
}
