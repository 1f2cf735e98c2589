package pdwqo

// Equal values must be one key everywhere a key is hashed: GROUP BY,
// hash joins, hash distribution and shuffles. -0 equals +0 (and integer
// 0), and every NaN equals every other NaN, yet their float bits differ;
// the answers below are the correct ones, asserted on the serial
// reference and on one- and four-node appliances alike (so the reference
// cannot simply agree with the engine on a wrong answer).

import (
	"math"
	"testing"

	"pdwqo/internal/types"
)

func TestEqualFloatsAreOneKey(t *testing.T) {
	negZero := types.NewFloat(math.Copysign(0, -1))
	nans := []types.Value{
		types.NewFloat(math.NaN()),
		types.NewFloat(math.Float64frombits(0x7FF8000000000002)),
		types.NewFloat(math.Float64frombits(0xFFF8000000000000)),
	}
	data := map[string][]types.Row{}
	for i := int64(0); i < 12; i++ {
		zero := types.NewFloat(0)
		if i%2 == 1 {
			zero = negZero
		}
		data["fa"] = append(data["fa"], types.Row{types.NewInt(i), zero, types.NewInt(i % 3)})
		data["fb"] = append(data["fb"], types.Row{types.NewInt(i), zero})
		data["fc"] = append(data["fc"], types.Row{zero, types.NewInt(i)})
		data["fn"] = append(data["fn"], types.Row{types.NewInt(i), nans[i%3]})
	}
	cases := []struct {
		name, sql string
		want      []string // rows, values joined by "|"
	}{
		{"group by ±0", `SELECT COUNT(*) AS n FROM fa GROUP BY a_x`, []string{"12"}},
		{"group by a float expression", `SELECT COUNT(*) AS n FROM fa GROUP BY a_x * a_s`, []string{"12"}},
		{"hash join on ±0", `SELECT COUNT(*) AS n FROM fa, fb WHERE a_x = b_x`, []string{"144"}},
		{"join ±0 to integer 0", `SELECT COUNT(*) AS n FROM fa, fb WHERE a_s = b_x`, []string{"48"}},
		{"distributed on ±0", `SELECT COUNT(*) AS n FROM fc GROUP BY c_x`, []string{"12"}},
		{"group by NaNs", `SELECT COUNT(*) AS n FROM fn GROUP BY n_x`, []string{"12"}},
	}
	for _, nodes := range []int{1, 4} {
		shell, err := NewShellFromDDL(nodes,
			`CREATE TABLE fa (a_id BIGINT PRIMARY KEY, a_x FLOAT, a_s BIGINT) WITH (DISTRIBUTION = HASH(a_id))`,
			`CREATE TABLE fb (b_id BIGINT PRIMARY KEY, b_x FLOAT) WITH (DISTRIBUTION = HASH(b_id))`,
			`CREATE TABLE fc (c_x FLOAT, c_n BIGINT) WITH (DISTRIBUTION = HASH(c_x))`,
			`CREATE TABLE fn (n_id BIGINT PRIMARY KEY, n_x FLOAT) WITH (DISTRIBUTION = HASH(n_id))`,
		)
		if err != nil {
			t.Fatal(err)
		}
		db, err := Open(shell, data)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			serial, err := db.ExecuteSerial(tc.sql)
			if err != nil {
				t.Fatalf("%s serial: %v", tc.name, err)
			}
			dist, err := db.Execute(tc.sql, Options{})
			if err != nil {
				t.Fatalf("%s N=%d: %v", tc.name, nodes, err)
			}
			for arm, res := range map[string]*Result{"serial": serial, "distributed": dist} {
				var got []string
				for _, row := range res.Rows {
					got = append(got, row.String())
				}
				if len(got) != len(tc.want) {
					t.Errorf("%s, %s N=%d: %v, want %v", tc.name, arm, nodes, got, tc.want)
					continue
				}
				for i := range got {
					if got[i] != "("+tc.want[i]+")" {
						t.Errorf("%s, %s N=%d: %v, want %v", tc.name, arm, nodes, got, tc.want)
						break
					}
				}
			}
		}
	}
}
