package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// Table names of the demo schema the benchmark builds.
const (
	tblSales    = "sales"
	tblStations = "stations"
)

// numRegions is the size of the region domain stations are spread over.
const numRegions = 16

// modsPerStep is the number of modifications published per broker step.
const modsPerStep = 16

// maxAmount bounds sale amounts. Amounts are whole numbers so float SUMs
// are exact whatever order an engine folds them in, which is what lets
// the content hash compare engines byte for byte.
const maxAmount = 100

// zipfS is the Zipf exponent of the skewed workloads.
const zipfS = 1.1

// streamSpec fixes the shape of one workload's data and modification
// stream. Everything else about the stream follows from the seed.
type streamSpec struct {
	Sales    int // steady-state sales rows (held within ±1 %)
	Stations int
	// SalesShare is the probability that a modification targets sales;
	// the rest are in-place station region updates.
	SalesShare float64
	// Zipf draws station keys (for sales.station and for station
	// updates) from Zipf(zipfS) instead of uniformly.
	Zipf bool
	// IndexSalesStation builds the hash index on sales.station. Without
	// it a dimension-side delta scans the fact replica.
	IndexSalesStation bool
}

// event is one generated modification addressed to a base table.
type event struct {
	table string
	mod   ivm.Mod
}

// generator produces the seeded initial rows and the bounded-size
// modification stream. It mirrors the state the stream leaves behind
// (live sale keys, each station's region) so every modification it
// emits is valid against the tables it will meet.
type generator struct {
	spec   streamSpec
	rng    *rand.Rand
	zipf   *rand.Zipf
	live   []int64 // live sale keys, unordered
	next   int64   // next fresh sale key
	region []int   // current region index per station
}

func regionName(i int) string { return fmt.Sprintf("R%02d", i) }

func newGenerator(spec streamSpec, seed int64) *generator {
	g := &generator{spec: spec, rng: rand.New(rand.NewSource(seed))}
	if spec.Zipf {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(spec.Stations-1))
	}
	g.region = make([]int, spec.Stations)
	for i := range g.region {
		g.region[i] = i % numRegions
	}
	return g
}

// station draws a station key from the workload's key distribution.
func (g *generator) station() int64 {
	if g.zipf != nil {
		return int64(g.zipf.Uint64())
	}
	return int64(g.rng.Intn(g.spec.Stations))
}

func (g *generator) saleRow(key int64) storage.Row {
	return storage.Row{storage.I(key), storage.I(g.station()), storage.F(float64(1 + g.rng.Intn(maxAmount)))}
}

// newWorld builds the seeded base tables and returns them with the
// generator positioned at the start of the modification stream.
func newWorld(spec streamSpec, seed int64) (*storage.DB, *generator, error) {
	g := newGenerator(spec, seed)
	db := storage.NewDB()
	stSchema, err := storage.NewSchema(tblStations, []storage.Column{
		{Name: "stationkey", Type: storage.TInt},
		{Name: "region", Type: storage.TString},
	}, "stationkey")
	if err != nil {
		return nil, nil, err
	}
	stations, err := db.CreateTable(stSchema)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < spec.Stations; i++ {
		if err := stations.Insert(storage.Row{storage.I(int64(i)), storage.S(regionName(g.region[i]))}); err != nil {
			return nil, nil, err
		}
	}
	if err := stations.CreateIndex("st_pk", storage.HashIndex, "stationkey"); err != nil {
		return nil, nil, err
	}
	saSchema, err := storage.NewSchema(tblSales, []storage.Column{
		{Name: "salekey", Type: storage.TInt},
		{Name: "station", Type: storage.TInt},
		{Name: "amount", Type: storage.TFloat},
	}, "salekey")
	if err != nil {
		return nil, nil, err
	}
	sales, err := db.CreateTable(saSchema)
	if err != nil {
		return nil, nil, err
	}
	g.live = make([]int64, 0, spec.Sales+spec.Sales/50)
	for k := int64(0); k < int64(spec.Sales); k++ {
		if err := sales.Insert(g.saleRow(k)); err != nil {
			return nil, nil, err
		}
		g.live = append(g.live, k)
	}
	g.next = int64(spec.Sales)
	if spec.IndexSalesStation {
		if err := sales.CreateIndex("sa_station", storage.HashIndex, "station"); err != nil {
			return nil, nil, err
		}
	}
	return db, g, nil
}

// salesMod emits one sales modification: a third are in-place updates,
// the rest inserts and deletes balanced so the table stays within half
// a percent of its target size.
func (g *generator) salesMod() event {
	if g.rng.Intn(3) == 0 {
		key := g.live[g.rng.Intn(len(g.live))]
		return event{tblSales, ivm.Update("", []storage.Value{storage.I(key)}, g.saleRow(key))}
	}
	band := g.spec.Sales / 200
	if band < 1 {
		band = 1
	}
	insert := g.rng.Intn(2) == 0
	if len(g.live) <= g.spec.Sales-band {
		insert = true
	} else if len(g.live) >= g.spec.Sales+band {
		insert = false
	}
	if insert {
		key := g.next
		g.next++
		g.live = append(g.live, key)
		return event{tblSales, ivm.Insert("", g.saleRow(key))}
	}
	i := g.rng.Intn(len(g.live))
	key := g.live[i]
	g.live[i] = g.live[len(g.live)-1]
	g.live = g.live[:len(g.live)-1]
	return event{tblSales, ivm.Delete("", storage.I(key))}
}

// stationMod emits an in-place region change of one station. The new
// region always differs from the current one, so the modification is
// never a no-op the engines could net away.
func (g *generator) stationMod() event {
	k := g.station()
	r := (g.region[k] + 1 + g.rng.Intn(numRegions-1)) % numRegions
	g.region[k] = r
	return event{tblStations, ivm.Update("", []storage.Value{storage.I(k)},
		storage.Row{storage.I(k), storage.S(regionName(r))})}
}

// step emits one broker step's modifications.
func (g *generator) step() []event {
	evs := make([]event, modsPerStep)
	for i := range evs {
		if g.rng.Float64() < g.spec.SalesShare {
			evs[i] = g.salesMod()
		} else {
			evs[i] = g.stationMod()
		}
	}
	return evs
}

// steps emits n consecutive steps.
func (g *generator) steps(n int) [][]event {
	out := make([][]event, n)
	for i := range out {
		out[i] = g.step()
	}
	return out
}

// streamHash folds a stream into one number; equal seeds must give
// equal hashes.
func streamHash(steps [][]event) uint64 {
	h := fnv.New64a()
	for _, evs := range steps {
		for _, ev := range evs {
			fmt.Fprintf(h, "%s|%d|%v|%v;", ev.table, ev.mod.Kind, ev.mod.Key, ev.mod.Row)
		}
	}
	return h.Sum64()
}

// applyEvent applies one modification straight to a live table, the way
// the broker does for the first subscription that watches it.
func applyEvent(db *storage.DB, ev event) error {
	tbl, err := db.Table(ev.table)
	if err != nil {
		return err
	}
	switch ev.mod.Kind {
	case ivm.ModInsert:
		return tbl.Insert(ev.mod.Row)
	case ivm.ModDelete:
		_, err = tbl.Delete(ev.mod.Key...)
	case ivm.ModUpdate:
		_, err = tbl.Update(ev.mod.Key, ev.mod.Row)
	}
	return err
}
