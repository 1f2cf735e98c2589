package tpch

import (
	"fmt"
	"math"
	"math/rand"

	"pdwqo/internal/catalog"
	"pdwqo/internal/types"
)

// Data holds generated rows per table, in schema column order.
type Data map[string][]types.Row

// Rows counts total rows across all tables.
func (d Data) Rows() int {
	n := 0
	for _, rows := range d {
		n += len(rows)
	}
	return n
}

// Scale constants: rows per unit scale factor (TPC-H proportions, scaled
// for an in-memory simulator).
const (
	regionRows    = 5
	nationRows    = 25
	supplierScale = 10000
	customerScale = 150000
	ordersScale   = 1500000
	partScale     = 200000
	suppsPerPart  = 4
)

var (
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
		"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
		"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
		"UNITED STATES",
	}
	// partWords approximates dbgen's P_NAME word pool; "forest" is present
	// so the paper's Q20 predicate selects ≈1/len(partWords) of parts.
	partWords = []string{
		"almond", "antique", "aquamarine", "azure", "beige", "bisque",
		"black", "blanched", "blue", "blush", "brown", "burlywood",
		"burnished", "chartreuse", "chiffon", "chocolate", "coral",
		"cornflower", "cornsilk", "cream", "cyan", "dark", "deep", "dim",
		"dodger", "drab", "firebrick", "floral", "forest", "frosted",
		"gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
		"hot", "hotpink", "indian", "ivory", "khaki", "lace", "lavender",
		"lawn", "lemon", "light", "lime", "linen", "magenta", "maroon",
	}
	partTypes      = []string{"PROMO BRUSHED COPPER", "PROMO POLISHED BRASS", "STANDARD ANODIZED TIN", "ECONOMY PLATED NICKEL", "MEDIUM BURNISHED STEEL", "SMALL POLISHED COPPER"}
	containers     = []string{"SM CASE", "LG BOX", "MED BAG", "JUMBO JAR", "WRAP PKG"}
	segments       = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities     = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipmodes      = []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "REG AIR", "FOB"}
	orderStatuses  = []string{"O", "F", "P"}
	returnFlags    = []string{"R", "A", "N"}
	lineStatusesBy = []string{"O", "F"}
)

// Generate produces a deterministic TPC-H dataset at the given scale
// factor. sf = 0.01 yields roughly 1.5k customers / 15k orders / 60k
// lineitems.
func Generate(sf float64, seed int64) Data {
	return GenerateSkewed(sf, seed, 1)
}

// GenerateSkewed is Generate with a skew exponent on the foreign keys that
// drive data movement (o_custkey, l_partkey, l_suppkey): 1 = uniform (the
// paper's §3.3.1 uniformity assumption), larger values concentrate
// references on low keys with a power-law, letting experiments measure how
// the cost model degrades when the assumption is violated (E13).
func GenerateSkewed(sf float64, seed int64, skew float64) Data {
	r := rand.New(rand.NewSource(seed))
	if skew < 1 {
		skew = 1
	}
	skewed := func(n int) int64 {
		u := math.Pow(r.Float64(), skew)
		k := int64(u*float64(n)) + 1
		if k > int64(n) {
			k = int64(n)
		}
		return k
	}
	scale := func(base int) int {
		n := int(float64(base) * sf)
		if n < 5 {
			n = 5
		}
		return n
	}
	nSupp := scale(supplierScale)
	nCust := scale(customerScale)
	nOrders := scale(ordersScale)
	nPart := scale(partScale)

	d := Data{}

	for i := 0; i < regionRows; i++ {
		d["region"] = append(d["region"], types.Row{
			types.NewInt(int64(i)), types.NewString(regionNames[i]),
		})
	}
	for i := 0; i < nationRows; i++ {
		d["nation"] = append(d["nation"], types.Row{
			types.NewInt(int64(i)), types.NewString(nationNames[i]), types.NewInt(int64(i % regionRows)),
		})
	}
	for i := 1; i <= nSupp; i++ {
		d["supplier"] = append(d["supplier"], types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("Supplier#%09d", i)),
			types.NewString(fmt.Sprintf("addr-%d %s", r.Intn(9999), partWords[r.Intn(len(partWords))])),
			types.NewInt(int64(r.Intn(nationRows))),
			types.NewFloat(float64(r.Intn(1000000))/100 - 1000),
		})
	}
	for i := 1; i <= nCust; i++ {
		d["customer"] = append(d["customer"], types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("Customer#%09d", i)),
			types.NewInt(int64(r.Intn(nationRows))),
			types.NewFloat(float64(r.Intn(1100000))/100 - 1000),
			types.NewString(segments[r.Intn(len(segments))]),
		})
	}
	for i := 1; i <= nPart; i++ {
		w1 := partWords[r.Intn(len(partWords))]
		w2 := partWords[r.Intn(len(partWords))]
		w3 := partWords[r.Intn(len(partWords))]
		d["part"] = append(d["part"], types.Row{
			types.NewInt(int64(i)),
			types.NewString(w1 + " " + w2 + " " + w3),
			types.NewString(fmt.Sprintf("Brand#%d%d", 1+r.Intn(5), 1+r.Intn(5))),
			types.NewString(partTypes[r.Intn(len(partTypes))]),
			types.NewInt(int64(1 + r.Intn(50))),
			types.NewString(containers[r.Intn(len(containers))]),
			types.NewFloat(900 + float64(i%1000)),
		})
		// partsupp: suppsPerPart suppliers per part.
		for j := 0; j < suppsPerPart; j++ {
			sk := int64((i+j*(nSupp/suppsPerPart+1))%nSupp) + 1
			d["partsupp"] = append(d["partsupp"], types.Row{
				types.NewInt(int64(i)),
				types.NewInt(sk),
				types.NewInt(int64(1 + r.Intn(9999))),
				types.NewFloat(float64(r.Intn(100000)) / 100),
			})
		}
	}

	startDate := types.MustParseDate("1992-01-01").DateDays()
	endDate := types.MustParseDate("1998-08-02").DateDays()
	lineNo := 0
	for i := 1; i <= nOrders; i++ {
		ok := int64(i)
		odate := startDate + r.Int63n(endDate-startDate-151)
		nLines := 1 + r.Intn(7)
		total := 0.0
		for l := 1; l <= nLines; l++ {
			qty := float64(1 + r.Intn(50))
			price := 900 + float64(r.Intn(100000))/100*qty/10
			disc := float64(r.Intn(11)) / 100
			tax := float64(r.Intn(9)) / 100
			ship := odate + 1 + r.Int63n(121)
			commit := odate + 30 + r.Int63n(61)
			receipt := ship + 1 + r.Int63n(30)
			total += price * (1 + tax) * (1 - disc)
			d["lineitem"] = append(d["lineitem"], types.Row{
				types.NewInt(ok),
				types.NewInt(skewed(nPart)),
				types.NewInt(skewed(nSupp)),
				types.NewInt(int64(l)),
				types.NewFloat(qty),
				types.NewFloat(price),
				types.NewFloat(disc),
				types.NewFloat(tax),
				types.NewString(returnFlags[r.Intn(len(returnFlags))]),
				types.NewString(lineStatusesBy[r.Intn(len(lineStatusesBy))]),
				types.NewDate(ship),
				types.NewDate(commit),
				types.NewDate(receipt),
				types.NewString(shipmodes[r.Intn(len(shipmodes))]),
			})
			lineNo++
		}
		d["orders"] = append(d["orders"], types.Row{
			types.NewInt(ok),
			types.NewInt(skewed(nCust)),
			types.NewString(orderStatuses[r.Intn(len(orderStatuses))]),
			types.NewFloat(total),
			types.NewDate(odate),
			types.NewString(priorities[r.Intn(len(priorities))]),
		})
	}
	return d
}

// BuildShell generates data, places it on the topology, computes per-node
// local statistics, merges them into global statistics (paper §2.2), and
// returns the populated shell database plus the dataset.
func BuildShell(sf float64, nodes int, seed int64) (*catalog.Shell, Data, error) {
	return BuildShellSkewed(sf, nodes, seed, 1)
}

// BuildShellSkewed is BuildShell over GenerateSkewed data.
func BuildShellSkewed(sf float64, nodes int, seed int64, skew float64) (*catalog.Shell, Data, error) {
	shell := catalog.NewShell(nodes)
	data := GenerateSkewed(sf, seed, skew)
	for _, tbl := range Tables() {
		if err := shell.AddTable(tbl); err != nil {
			return nil, nil, err
		}
	}
	if err := shell.BuildMissingStats(data); err != nil {
		return nil, nil, err
	}
	return shell, data, nil
}
