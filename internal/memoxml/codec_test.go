package memoxml

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdwqo/internal/algebra"
	"pdwqo/internal/catalog"
	"pdwqo/internal/memo"
	"pdwqo/internal/qgen"
	"pdwqo/internal/sqlparser"
	"pdwqo/internal/types"
)

var update = flag.Bool("update", false, "rewrite the golden documents under testdata/golden")

// hardStrings is what a string attribute must carry unchanged: every
// control character, DEL, bytes that are not UTF-8, the markup characters,
// white space at either end and in the middle, and the two characters
// UTF-8 can spell but XML 1.0 excludes.
func hardStrings() []string {
	out := []string{"", "plain", "\x7f", "\xff", "caf\xc3", "\xc3\xa9t\xc3\xa9", `"<&>'`, "&amp;", "&#x41;",
		" lead", "trail ", "  ", "a\r\nb", "a\tb", "a\nb", "\ufffd", "\ufffe", "\uffff", "日本語", "'; DROP TABLE t --"}
	for c := 0; c < 0x20; c++ {
		out = append(out, "A"+string(rune(c))+"B")
	}
	return out
}

// TestStringAttributeIsByteExact round-trips each hard string through one
// attribute, and checks that whatever was written is a well-formed line a
// standard reader would accept: no raw control character, valid UTF-8.
func TestStringAttributeIsByteExact(t *testing.T) {
	for _, want := range hardStrings() {
		enc := &codec{}
		enc.begin("X")
		enc.str("val", &want)
		enc.end("X")
		for _, b := range enc.buf[:len(enc.buf)-1] {
			if b < 0x20 {
				t.Errorf("%q: raw control byte %#x in %q", want, b, enc.buf)
			}
		}
		if !bytes.Equal(bytes.ToValidUTF8(enc.buf, nil), enc.buf) {
			t.Errorf("%q: document is not UTF-8: %q", want, enc.buf)
		}
		dec := &codec{dec: true, scanner: scanner{data: enc.buf}}
		var got string
		if !dec.child() {
			t.Fatalf("%q: no element in %q: %v", want, enc.buf, dec.err)
		}
		if dec.str("val", &got); dec.err != nil || got != want {
			t.Errorf("%q: read back %q from %q (err %v)", want, got, enc.buf, dec.err)
		}
	}
}

// TestStringsRoundTripInEverySlot plants a hard string in every string
// attribute of the schema — column name and qualifier, scan alias,
// constant, LIKE pattern, function name, projection and aggregate names —
// and requires the decoded memo to hold the same bytes.
func TestStringsRoundTripInEverySlot(t *testing.T) {
	shell := testShell(t)
	for _, s := range hardStrings() {
		col := algebra.ColumnMeta{ID: 1, Name: s, Qual: s, Type: types.KindString}
		ref := algebra.NewColRef(col)
		filter := &algebra.Binary{Op: sqlparser.OpAnd,
			L: &algebra.Like{E: ref, Pattern: s},
			R: &algebra.Binary{Op: sqlparser.OpEq, L: &algebra.Func{Name: s, Out: types.KindString, Args: []algebra.Scalar{ref}}, R: &algebra.Const{Val: types.NewString(s)}}}
		d := &Decoded{Root: 3, MaxCol: 4, Groups: map[int]*DecodedGroup{
			1: {ID: 1, OutCols: []algebra.ColumnMeta{col}, Exprs: []DecodedExpr{{Op: &algebra.Get{Table: shell.Table("customer"), Alias: s, Cols: []algebra.ColumnMeta{col}}}}},
			2: {ID: 2, OutCols: []algebra.ColumnMeta{col}, Exprs: []DecodedExpr{{Op: &algebra.Select{Filter: filter}, Children: []int{1}}}},
			3: {ID: 3, Exprs: []DecodedExpr{
				{Op: &algebra.Project{Defs: []algebra.ProjDef{{ID: 2, Name: s, Expr: ref}}}, Children: []int{2}},
				{Op: &algebra.GroupBy{Aggs: []algebra.AggDef{{Func: algebra.AggMax, ID: 3, Name: s, Arg: ref}}}, Children: []int{2}},
			}},
		}}
		doc, err := d.Encode()
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		got, err := Decode(doc, shell)
		if err != nil {
			t.Fatalf("%q: %v\n%s", s, err, doc)
		}
		get := got.Groups[1].Exprs[0].Op.(*algebra.Get)
		and := got.Groups[2].Exprs[0].Op.(*algebra.Select).Filter.(*algebra.Binary)
		eq := and.R.(*algebra.Binary)
		slots := map[string]string{
			"column name": got.Groups[1].OutCols[0].Name, "column qualifier": got.Groups[1].OutCols[0].Qual,
			"alias": get.Alias, "pattern": and.L.(*algebra.Like).Pattern, "function name": eq.L.(*algebra.Func).Name,
			"constant":        eq.R.(*algebra.Const).Val.Str(),
			"projection name": got.Groups[3].Exprs[0].Op.(*algebra.Project).Defs[0].Name,
			"aggregate name":  got.Groups[3].Exprs[1].Op.(*algebra.GroupBy).Aggs[0].Name,
		}
		for slot, v := range slots {
			if v != s {
				t.Errorf("%s: wrote %q, read %q", slot, s, v)
			}
		}
		again, err := got.Encode()
		if err != nil || !bytes.Equal(doc, again) {
			t.Errorf("%q: the decoded memo re-encodes differently (err %v)", s, err)
		}
	}
}

// TestFloatsRoundTripBitForBit covers every float of the schema — rows,
// width, ndv, nullFrac, cost and float constants go through the same two
// calls — at the edges of the format.
func TestFloatsRoundTripBitForBit(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
		1e308, math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, 989.6666666666667, 1e21, 123456789012345680,
		math.Inf(1), math.Inf(-1), math.NaN()}
	for _, want := range values {
		enc := &codec{}
		enc.begin("S")
		enc.float("cost", &want)
		c := types.NewFloat(want)
		enc.constant(&c)
		enc.end("S")
		dec := &codec{dec: true, scanner: scanner{data: enc.buf}}
		var got float64
		var val types.Value
		if !dec.child() {
			t.Fatalf("%v: no element in %q", want, enc.buf)
		}
		dec.float("cost", &got)
		dec.constant(&val)
		if dec.err != nil {
			t.Fatalf("%v: %v in %q", want, dec.err, enc.buf)
		}
		for _, g := range []float64{got, val.Float()} {
			if math.Float64bits(g) != math.Float64bits(want) && !(math.IsNaN(g) && math.IsNaN(want)) {
				t.Errorf("wrote %v (%#x), read %v (%#x) from %q", want, math.Float64bits(want), g, math.Float64bits(g), enc.buf)
			}
		}
	}
}

// goldenMemos are the documents pinned under testdata/golden: one explored
// four-relation join per generator topology, whole, and q08 — the largest
// TPC-H document, 0.8 MB — by length and digest.
func goldenMemos(tb testing.TB) map[string][]byte {
	tb.Helper()
	docs := map[string][]byte{}
	add := func(name string, m *memo.Memo) {
		doc, err := Encode(m)
		if err != nil {
			tb.Fatal(err)
		}
		docs[name] = doc
	}
	for _, topo := range qgen.Topologies() {
		m, _ := qgenMemo(tb, topo, 4)
		add(string(topo)+"004.xml", m)
	}
	m, _ := tpchMemo(tb, "q08")
	add("q08.sha256", m)
	docs["q08.sha256"] = []byte(fmt.Sprintf("%d bytes, sha256 %x\n", len(docs["q08.sha256"]), sha256.Sum256(docs["q08.sha256"])))
	return docs
}

func TestGoldenDocuments(t *testing.T) {
	for name, got := range goldenMemos(t) {
		path := filepath.Join("testdata", "golden", name)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with: go test ./internal/memoxml -run TestGoldenDocuments -update)", err)
		}
		if !bytes.Equal(got, want) {
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Errorf("%s line %d:\n  want %s\n  got  %s", name, i+1, wl[i], gl[i])
					break
				}
			}
			t.Errorf("%s drifted from its golden document (re-bless with -update if intended)", name)
		}
	}
}

// malformedScalars are the operand-count violations that used to index
// past the end of an empty operand list.
var malformedScalars = []string{
	`<S kind="not"/>`, `<S kind="cast"/>`, `<S kind="inlist"/>`, `<S kind="case" negated="true"/>`,
	`<S kind="neg"/>`, `<S kind="isnull"/>`, `<S kind="like"/>`, `<S kind="bin"/>`,
	`<S kind="not"><S kind="const"/><S kind="const"/></S>`, `<S kind="case"><S kind="const"/></S>`,
}

func TestDecodeMalformedScalars(t *testing.T) {
	shell := testShell(t)
	for _, s := range malformedScalars {
		doc := `<Memo root="1" maxCol="1"><Group id="1"><Expr op="Select"><Filter>` + s + `</Filter></Expr></Group></Memo>`
		if _, err := Decode([]byte(doc), shell); err == nil || !strings.HasPrefix(err.Error(), "memoxml:") {
			t.Errorf("%s: want a memoxml: error, got %v", s, err)
		}
	}
}

// FuzzDecode: whatever the bytes, Decode returns a memoxml: error or a
// memo that encodes to a document which decodes to the same memo — never a
// panic, never a hang. Seeds: the malformed scalars, the hand-written
// planverify fixtures, the golden document of each generator topology,
// and every one of those cut short at a few places.
func FuzzDecode(f *testing.F) {
	// A shell holding the tables of every golden document, so that the
	// seeds reach past table resolution.
	shell := catalog.NewShell(4)
	for _, topo := range qgen.Topologies() {
		q, err := qgen.Generate(qgen.Spec{Topology: topo, Relations: 4, Seed: 42})
		if err != nil {
			f.Fatal(err)
		}
		for _, table := range q.Tables {
			if err := shell.AddTable(table); err != nil {
				f.Fatal(err)
			}
		}
	}
	var seeds [][]byte
	for _, s := range malformedScalars {
		seeds = append(seeds, []byte(`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Select"><Filter>`+s+`</Filter></Expr></Group></Memo>`))
	}
	for _, pattern := range []string{"../planverify/testdata/*.xml", "testdata/golden/*.xml"} {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seed documents match %s (%v)", pattern, err)
		}
		for _, path := range paths {
			doc, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, doc)
		}
	}
	for _, doc := range seeds {
		f.Add(doc)
		for _, cut := range []int{1, len(doc) / 3, len(doc) / 2, len(doc) - 2} {
			if cut > 0 && cut < len(doc) {
				f.Add(doc[:cut])
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data, shell)
		if err != nil {
			if d != nil || !strings.HasPrefix(err.Error(), "memoxml:") {
				t.Fatalf("untyped failure: %v", err)
			}
			return
		}
		doc, err := d.Encode()
		if err != nil {
			t.Fatalf("decoded memo does not encode: %v", err)
		}
		d2, err := Decode(doc, shell)
		if err != nil {
			t.Fatalf("re-encoded memo does not decode: %v\n%s", err, doc)
		}
		if again, err := d2.Encode(); err != nil || !bytes.Equal(doc, again) {
			t.Fatalf("re-encoding is not a fixed point (err %v):\n%s\nthen:\n%s", err, doc, again)
		}
	})
}
