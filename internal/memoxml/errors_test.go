package memoxml

import (
	"strings"
	"testing"
)

// TestDecodeMalformedXML walks the Decode error paths that a corrupted
// or hand-crafted memo document can reach. Each case must fail with a
// memoxml-prefixed error, never panic — the decoder sits on the process
// boundary between the compilation stack and the PDW engine, so this is
// adversarial input by construction.
func TestDecodeMalformedXML(t *testing.T) {
	shell := testShell(t)
	cases := []struct {
		name, xml, wantErr string
	}{
		{"truncated document", `<Memo root="1" maxCol="1"><Group id="1">`, "memoxml"},
		{"empty memo", `<Memo></Memo>`, "root group 0 missing"},
		{"empty memo with root attr", `<Memo root="3" maxCol="1"></Memo>`, "root group 3 missing"},
		{"root points at missing group",
			`<Memo root="2" maxCol="1"><Group id="1"><Expr op="Values"/></Group></Memo>`,
			"root group 2 missing"},
		{"dangling child group ref",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Join" children="7,8"/></Group></Memo>`,
			"unknown child group 7"},
		{"partially dangling child ref",
			`<Memo root="1" maxCol="1">` +
				`<Group id="1"><Expr op="Join" children="2,9"/></Group>` +
				`<Group id="2"><Expr op="Values"/></Group></Memo>`,
			"unknown child group 9"},
		{"non-numeric child ref",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Join" children="2,x"/></Group></Memo>`,
			"bad child group"},
		{"duplicate group id",
			`<Memo root="1" maxCol="1">` +
				`<Group id="1"><Expr op="Values"/></Group>` +
				`<Group id="1"><Expr op="Values"/></Group></Memo>`,
			"duplicate group id 1"},
		{"self-referential group",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Sort" children="1"/></Group></Memo>`,
			"reference cycle"},
		{"two-group cycle",
			`<Memo root="1" maxCol="1">` +
				`<Group id="1"><Expr op="Sort" children="2"/></Group>` +
				`<Group id="2"><Expr op="Sort" children="1"/></Group></Memo>`,
			"reference cycle"},
		{"cycle detached from root",
			`<Memo root="1" maxCol="1">` +
				`<Group id="1"><Expr op="Values"/></Group>` +
				`<Group id="2"><Expr op="Sort" children="3"/></Group>` +
				`<Group id="3"><Expr op="Sort" children="2"/></Group></Memo>`,
			"reference cycle"},
		{"unknown operator",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Teleport"/></Group></Memo>`,
			`unknown operator "Teleport"`},
		{"unknown table",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Get" table="nope"/></Group></Memo>`,
			`unknown table "nope"`},
		{"bad group key",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="GroupBy" keys="1,zap"/></Group></Memo>`,
			"bad group key"},
		{"bad key colset",
			`<Memo root="1" maxCol="1"><Group id="1"><Keys><Key>1,bogus</Key></Keys><Expr op="Values"/></Group></Memo>`,
			"bad column id"},
		{"negative key column",
			`<Memo root="1" maxCol="1"><Group id="1"><Keys><Key>1,-5</Key></Keys><Expr op="Values"/></Group></Memo>`,
			`bad column id "-5"`},
		{"key column past the dictionary's range",
			`<Memo root="1" maxCol="1"><Group id="1"><Keys><Key>99999999999</Key></Keys><Expr op="Values"/></Group></Memo>`,
			`bad column id "99999999999"`},
		{"negative group key",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="GroupBy" keys="-1"/></Group></Memo>`,
			`bad group key "-1"`},
		{"negative projection column",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Project"><Defs><Def id="-2" name="x"><S kind="const" valKind="1" val="1"/></Def></Defs></Expr></Group></Memo>`,
			"projection column id -2 out of range"},
		{"negative aggregate column",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="GroupBy"><Aggs><Agg func="1" id="-3" name="a"><S kind="const" valKind="1" val="1"/></Agg></Aggs></Expr></Group></Memo>`,
			"aggregate column id -3 out of range"},
		{"aggregate column past the dictionary's range",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="GroupBy"><Aggs><Agg func="1" id="2000000" name="a"><S kind="const" valKind="1" val="1"/></Agg></Aggs></Expr></Group></Memo>`,
			"aggregate column id 2000000 out of range"},
		{"negative sort key column",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Sort"><SortKeys><Key id="-4"/></SortKeys></Expr></Group></Memo>`,
			"sort key column id -4 out of range"},
		{"unknown scalar kind",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Select"><Filter><S kind="mystery"/></Filter></Expr></Group></Memo>`,
			`unknown scalar kind "mystery"`},
		{"bad int const",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Select"><Filter><S kind="const" valKind="2" val="NaNopes"/></Filter></Expr></Group></Memo>`,
			"bad int"},
		{"bad bool const",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Select"><Filter><S kind="const" valKind="1" val="maybe"/></Filter></Expr></Group></Memo>`,
			"bad bool"},
		{"bad float const",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Select"><Filter><S kind="const" valKind="3" val="1.2.3"/></Filter></Expr></Group></Memo>`,
			"bad float"},
		{"bad date const",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Select"><Filter><S kind="const" valKind="5" val="yesterday"/></Filter></Expr></Group></Memo>`,
			"bad date"},
		{"unknown value kind",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Select"><Filter><S kind="const" valKind="99"/></Filter></Expr></Group></Memo>`,
			"unknown value kind 99"},
		{"join kind out of range",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Join" joinKind="99"/></Group></Memo>`,
			"joinKind=99 out of range"},
		{"binary operator out of range",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Select"><Filter><S kind="bin" binop="99" l="1" r="1"/></Filter></Expr></Group></Memo>`,
			"binop=99 out of range"},
		{"aggregation phase out of range",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="GroupBy" phase="99"/></Group></Memo>`,
			"phase=99 out of range"},
		{"aggregate function out of range",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="GroupBy"><Aggs><Agg func="99" id="1" name="a"/></Aggs></Expr></Group></Memo>`,
			"func=99 out of range"},
		{"function result kind out of range",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Select"><Filter><S kind="func" name="f" outKind="99"/></Filter></Expr></Group></Memo>`,
			"outKind=99 out of range"},
		{"cast target kind out of range",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Select"><Filter><S kind="cast" outKind="99"><S kind="const"/></S></Filter></Expr></Group></Memo>`,
			"outKind=99 out of range"},
		{"column type out of range",
			`<Memo root="1" maxCol="1"><Cols><Col id="1" name="x" type="99"/></Cols><Group id="1"><Expr op="Values"/></Group></Memo>`,
			"type=99 out of range"},
		{"join with one child",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Join" children="2"/></Group><Group id="2"><Expr op="Values"/></Group></Memo>`,
			"Join expression with 1 children, want 2"},
		{"select with no child",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Select"><Filter><S kind="const"/></Filter></Expr></Group></Memo>`,
			"Select expression with 0 children, want 1"},
		{"select with no filter",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Select" children="2"/></Group><Group id="2"><Expr op="Values"/></Group></Memo>`,
			"select without a filter"},
		{"join conjunct missing from the dictionary",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Join" on="5" children="2,2"/></Group><Group id="2"><Expr op="Values"/></Group></Memo>`,
			"conjunct 5 missing from dictionary"},
		{"join conjunct id out of range",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Join" on="1,99999999999" children="2,2"/></Group><Group id="2"><Expr op="Values"/></Group></Memo>`,
			`bad conjunct id "99999999999"`},
		{"dictionary conjunct id out of range",
			`<Memo root="1" maxCol="1"><Conjs><C id="-1"><S kind="const"/></C></Conjs><Group id="1"><Expr op="Values"/></Group></Memo>`,
			"conjunct id -1 out of range"},
		{"duplicate conjunct id",
			`<Memo root="1" maxCol="1"><Conjs><C id="1"><S kind="const"/></C><C id="1"><S kind="const"/></C></Conjs><Group id="1"><Expr op="Values"/></Group></Memo>`,
			"duplicate conjunct id 1"},
		{"conjunct with no scalar",
			`<Memo root="1" maxCol="1"><Conjs><C id="1"/></Conjs><Group id="1"><Expr op="Values"/></Group></Memo>`,
			"conjunct 1 has no scalar"},
		{"conjunct dictionary after the group naming it",
			`<Memo root="1" maxCol="1"><Group id="1"><Expr op="Join" on="1" children="2,2"/></Group><Group id="2"><Expr op="Values"/></Group>` +
				`<Conjs><C id="1"><S kind="const"/></C></Conjs></Memo>`,
			"conjunct 1 missing from dictionary"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			_, err := Decode([]byte(c.xml), shell)
			if err == nil {
				t.Fatalf("Decode accepted malformed input:\n%s", c.xml)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
			if !strings.Contains(err.Error(), "memoxml") {
				t.Errorf("error %q lost the memoxml prefix", err)
			}
		})
	}
}

// TestDecodeErrorPropagation checks that scalar decode failures nested
// inside each operator payload surface instead of being swallowed: the
// same bad constant is smuggled in through every scalar-carrying slot.
func TestDecodeErrorPropagation(t *testing.T) {
	shell := testShell(t)
	const badConst = `<S kind="const" valKind="2" val="zap"/>`
	cases := []struct{ name, dict, body string }{
		{"select filter", "", `<Expr op="Select"><Filter>` + badConst + `</Filter></Expr>`},
		{"project def", "", `<Expr op="Project"><Defs><Def id="1" name="x">` + badConst + `</Def></Defs></Expr>`},
		{"join on", `<Conjs><C id="1">` + badConst + `</C></Conjs>`, `<Expr op="Join" on="1"/>`},
		{"agg arg", "", `<Expr op="GroupBy"><Aggs><Agg func="1" id="1" name="a">` + badConst + `</Agg></Aggs></Expr>`},
		{"values row", "", `<Expr op="Values"><Rows><Row><V kind="const" valKind="2" val="zap"/></Row></Rows></Expr>`},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			doc := `<Memo root="1" maxCol="1">` + c.dict + `<Group id="1">` + c.body + `</Group></Memo>`
			if _, err := Decode([]byte(doc), shell); err == nil || !strings.Contains(err.Error(), `bad int "zap"`) {
				t.Errorf("bad constant in %s must fail decode, got %v", c.name, err)
			}
		})
	}
}

// TestDecodeValidChildRefs makes sure the new reference validation does
// not reject a well-formed multi-group memo.
func TestDecodeValidChildRefs(t *testing.T) {
	shell := testShell(t)
	doc := `<Memo root="1" maxCol="1">` +
		`<Group id="1"><Expr op="Join" children="2,3"/></Group>` +
		`<Group id="2"><Expr op="Values"/></Group>` +
		`<Group id="3"><Expr op="Values"/></Group></Memo>`
	d, err := Decode([]byte(doc), shell)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Groups) != 3 {
		t.Errorf("got %d groups, want 3", len(d.Groups))
	}
}
