// Package tpcr generates a deterministic TPC-R-style database — the
// substrate of the paper's experiments. The generator preserves what the
// experiments depend on: TPC-R's table-size ratios (at scale factor 1,
// Region 5, Nation 25, Supplier 10k, Part 200k, PartSupp 800k), key
// structure (PartSupp has the composite key (partkey, suppkey) with four
// supplier entries per part), the MIDDLE EAST region selectivity (1 of 5
// regions, 5 of 25 nations), and the paper's two update types (random
// supplycost updates on PartSupp, random nationkey updates on Supplier).
package tpcr

import (
	"fmt"
	"math"
	"math/rand"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// Region and nation names from the TPC-R specification; nation i belongs
// to region nationRegions[i].
var (
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT",
		"ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA",
		"IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
		"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
		"SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
	}
	nationRegions = []int64{
		0, 1, 1, 1, 4,
		0, 3, 3, 2, 2,
		4, 4, 2, 4, 0,
		0, 0, 1, 2, 3,
		4, 2, 3, 3, 1,
	}
)

// Config parameterizes generation.
type Config struct {
	// ScaleFactor scales the variable-size tables: Supplier has
	// 10000*SF rows, Part 200000*SF, PartSupp 4 entries per part. Region
	// and Nation are fixed-size. The experiments default to SF=0.005
	// (50 suppliers, 1000 parts, 4000 partsupp rows), which preserves the
	// 80:1 PartSupp:Supplier ratio of the paper's setup.
	ScaleFactor float64
	// Seed drives all random attribute values.
	Seed int64
	// SupplierSuppkeyIndex adds a hash index on supplier.suppkey (the
	// "R indexed on the join attribute" side of Figure 1).
	SupplierSuppkeyIndex bool
	// PartSuppSuppkeyIndex adds a hash index on partsupp.suppkey. The
	// paper's TPC-R setup lacks it, which is what makes Supplier deltas
	// expensive (their join against PartSupp must scan/build over the
	// large table).
	PartSuppSuppkeyIndex bool
}

// DefaultConfig returns the experiment-scale configuration.
func DefaultConfig() Config {
	return Config{ScaleFactor: 0.005, Seed: 1, SupplierSuppkeyIndex: true}
}

// Sizes reports the generated table cardinalities for a config.
func (c Config) Sizes() (suppliers, parts, partsupps int) {
	suppliers = int(10000 * c.ScaleFactor)
	if suppliers < 1 {
		suppliers = 1
	}
	parts = int(200000 * c.ScaleFactor)
	if parts < 1 {
		parts = 1
	}
	return suppliers, parts, 4 * parts
}

// Generate populates db with the TPC-R-style tables and indexes.
func Generate(db *storage.DB, cfg Config) error {
	// Written so that NaN fails too; +Inf would overflow the table sizes.
	if !(cfg.ScaleFactor > 0) || math.IsInf(cfg.ScaleFactor, 1) {
		return fmt.Errorf("tpcr: scale factor must be a positive finite number, got %g", cfg.ScaleFactor)
	}
	nSupp, nPart, _ := cfg.Sizes()
	if !fourSuppliersPerPart(nSupp) {
		return fmt.Errorf("tpcr: scale factor %g gives %d suppliers, too few for four distinct ones per part", cfg.ScaleFactor, nSupp)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	region, err := createTable(db, "region", []storage.Column{
		{Name: "regionkey", Type: storage.TInt},
		{Name: "rname", Type: storage.TString},
	}, "regionkey")
	if err != nil {
		return err
	}
	for i, name := range regionNames {
		if err := region.Insert(storage.Row{storage.I(int64(i)), storage.S(name)}); err != nil {
			return err
		}
	}
	if err := region.CreateIndex("region_pk", storage.HashIndex, "regionkey"); err != nil {
		return err
	}

	nation, err := createTable(db, "nation", []storage.Column{
		{Name: "nationkey", Type: storage.TInt},
		{Name: "nname", Type: storage.TString},
		{Name: "regionkey", Type: storage.TInt},
	}, "nationkey")
	if err != nil {
		return err
	}
	for i, name := range nationNames {
		if err := nation.Insert(storage.Row{storage.I(int64(i)), storage.S(name), storage.I(nationRegions[i])}); err != nil {
			return err
		}
	}
	if err := nation.CreateIndex("nation_pk", storage.HashIndex, "nationkey"); err != nil {
		return err
	}

	supplier, err := createTable(db, "supplier", []storage.Column{
		{Name: "suppkey", Type: storage.TInt},
		{Name: "sname", Type: storage.TString},
		{Name: "nationkey", Type: storage.TInt},
		{Name: "acctbal", Type: storage.TFloat},
	}, "suppkey")
	if err != nil {
		return err
	}
	for i := 0; i < nSupp; i++ {
		row := storage.Row{
			storage.I(int64(i)),
			storage.S(fmt.Sprintf("Supplier#%09d", i)),
			storage.I(int64(rng.Intn(len(nationNames)))),
			storage.F(float64(rng.Intn(1000000)) / 100),
		}
		if err := supplier.Insert(row); err != nil {
			return err
		}
	}
	if cfg.SupplierSuppkeyIndex {
		if err := supplier.CreateIndex("supplier_suppkey", storage.HashIndex, "suppkey"); err != nil {
			return err
		}
	}

	part, err := createTable(db, "part", []storage.Column{
		{Name: "partkey", Type: storage.TInt},
		{Name: "pname", Type: storage.TString},
		{Name: "retailprice", Type: storage.TFloat},
	}, "partkey")
	if err != nil {
		return err
	}
	for i := 0; i < nPart; i++ {
		row := storage.Row{
			storage.I(int64(i)),
			storage.S(fmt.Sprintf("Part#%09d", i)),
			storage.F(float64(90000+i%20000) / 100),
		}
		if err := part.Insert(row); err != nil {
			return err
		}
	}
	if err := part.CreateIndex("part_pk", storage.HashIndex, "partkey"); err != nil {
		return err
	}

	partsupp, err := createTable(db, "partsupp", []storage.Column{
		{Name: "partkey", Type: storage.TInt},
		{Name: "suppkey", Type: storage.TInt},
		{Name: "availqty", Type: storage.TInt},
		{Name: "supplycost", Type: storage.TFloat},
	}, "partkey", "suppkey")
	if err != nil {
		return err
	}
	for p := 0; p < nPart; p++ {
		for j := 0; j < 4; j++ {
			// TPC-R's supplier assignment spreads each part's four
			// entries across the supplier space.
			sk := (p + j*suppStride(nSupp)) % nSupp
			row := storage.Row{
				storage.I(int64(p)),
				storage.I(int64(sk)),
				storage.I(int64(1 + rng.Intn(9999))),
				storage.F(float64(100+rng.Intn(99900)) / 100),
			}
			if err := partsupp.Insert(row); err != nil {
				return err
			}
		}
	}
	if cfg.PartSuppSuppkeyIndex {
		if err := partsupp.CreateIndex("partsupp_suppkey", storage.HashIndex, "suppkey"); err != nil {
			return err
		}
	}
	return nil
}

// suppStride is the step between a part's four suppliers.
func suppStride(nSupp int) int { return nSupp/4 + 1 }

// fourSuppliersPerPart reports whether suppStride gives every part four
// distinct suppliers: no multiple 1–3 of the stride wraps onto the
// supplier count. It fails for 1–4, 6, 9 and 12 suppliers.
func fourSuppliersPerPart(nSupp int) bool {
	for d := 1; d < 4; d++ {
		if d*suppStride(nSupp)%nSupp == 0 {
			return false
		}
	}
	return true
}

func createTable(db *storage.DB, name string, cols []storage.Column, key ...string) (*storage.Table, error) {
	schema, err := storage.NewSchema(name, cols, key...)
	if err != nil {
		return nil, err
	}
	return db.CreateTable(schema)
}

// PaperView is the representative view of the paper's Section 5: the
// minimum supply cost across the MIDDLE EAST region, an aggregate over a
// four-way join. PS and S are the aliases whose deltas the experiments
// process.
const PaperView = `
	SELECT MIN(PS.supplycost)
	FROM partsupp AS PS, supplier AS S, nation AS N, region AS R
	WHERE S.suppkey = PS.suppkey
	AND S.nationkey = N.nationkey
	AND N.regionkey = R.regionkey
	AND R.rname = 'MIDDLE EAST'`

// RegionGroupView generalizes the paper's view to a grouped aggregate:
// per-region supply statistics over the same four-way join. It exercises
// group creation and disappearance under the paper's update workload and
// is used by the extension tests.
const RegionGroupView = `
	SELECT R.rname, MIN(PS.supplycost), COUNT(*), SUM(PS.supplycost)
	FROM partsupp AS PS, supplier AS S, nation AS N, region AS R
	WHERE S.suppkey = PS.suppkey
	AND S.nationkey = N.nationkey
	AND N.regionkey = R.regionkey
	GROUP BY R.rname`

// JoinView is the two-way join of the paper's Figure 1 example: R ⋈ S
// with R = PartSupp (indexed on the join attribute when
// SupplierSuppkeyIndex-style config indexes partsupp) and S = Supplier.
const JoinView = `
	SELECT COUNT(*)
	FROM partsupp AS PS, supplier AS S
	WHERE PS.suppkey = S.suppkey`

// UpdateGen produces the paper's modification workload: each modification
// randomly updates either a PartSupp row's supplycost or a Supplier row's
// nationkey. Keys are drawn uniformly from the generated key space.
type UpdateGen struct {
	cfg   Config
	rng   *rand.Rand
	nSupp int
	nPart int
	db    *storage.DB
}

// NewUpdateGen returns a generator matching the database generated with
// cfg; seed controls the update stream independently of the data seed.
func NewUpdateGen(db *storage.DB, cfg Config, seed int64) *UpdateGen {
	nSupp, nPart, _ := cfg.Sizes()
	return &UpdateGen{cfg: cfg, rng: rand.New(rand.NewSource(seed)), nSupp: nSupp, nPart: nPart, db: db}
}

// PartSuppUpdate updates a random PartSupp row's supplycost (alias "PS").
func (g *UpdateGen) PartSuppUpdate() ivm.Mod {
	p := int64(g.rng.Intn(g.nPart))
	j := g.rng.Intn(4)
	sk := (int(p) + j*suppStride(g.nSupp)) % g.nSupp
	key := []storage.Value{storage.I(p), storage.I(int64(sk))}
	old, ok := g.db.MustTable("partsupp").Get(key...)
	if !ok {
		panic(fmt.Sprintf("tpcr: generated key (%d,%d) missing from partsupp", p, sk))
	}
	newRow := old.Clone()
	newRow[3] = storage.F(float64(100+g.rng.Intn(99900)) / 100)
	return ivm.Update("PS", key, newRow)
}

// SupplierUpdate updates a random Supplier row's nationkey (alias "S").
func (g *UpdateGen) SupplierUpdate() ivm.Mod {
	sk := int64(g.rng.Intn(g.nSupp))
	key := []storage.Value{storage.I(sk)}
	old, ok := g.db.MustTable("supplier").Get(key...)
	if !ok {
		panic(fmt.Sprintf("tpcr: generated key %d missing from supplier", sk))
	}
	newRow := old.Clone()
	newRow[2] = storage.I(int64(g.rng.Intn(len(nationNames))))
	return ivm.Update("S", key, newRow)
}
