// Command tpcrgen generates the TPC-R-style dataset used by the
// experiments and prints either summary statistics or CSV dumps of the
// generated tables.
//
// Usage:
//
//	tpcrgen [-scale F] [-seed N] [-csv table]
//
// Without -csv, table cardinalities and basic distribution statistics
// are printed. With -csv, the named table (region, nation, supplier,
// part, partsupp) is written to stdout as CSV.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"abivm/internal/storage"
	"abivm/internal/tpcr"
)

func main() {
	scale := flag.Float64("scale", 0.005, "TPC-R scale factor")
	seed := flag.Int64("seed", 1, "random seed")
	csv := flag.String("csv", "", "dump the named table as CSV instead of printing stats")
	out := flag.String("out", "", "write the generated database as a snapshot to this file")
	in := flag.String("in", "", "load the database from a snapshot instead of generating")
	flag.Parse()

	cfg := tpcr.Config{ScaleFactor: *scale, Seed: *seed, SupplierSuppkeyIndex: true}
	var db *storage.DB
	if *in != "" {
		data, err := os.ReadFile(*in)
		if err == nil {
			db, err = storage.ReadSnapshot(data)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tpcrgen:", err)
			os.Exit(1)
		}
	} else {
		db = storage.NewDB()
		if err := tpcr.Generate(db, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "tpcrgen:", err)
			os.Exit(1)
		}
	}
	if *out != "" {
		if err := os.WriteFile(*out, db.AppendSnapshot(nil), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "tpcrgen:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tpcrgen: snapshot written to %s\n", *out)
	}

	if *csv != "" {
		tbl, err := db.Table(*csv)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tpcrgen:", err)
			os.Exit(1)
		}
		w := bufio.NewWriter(os.Stdout)
		names := make([]string, len(tbl.Schema().Columns))
		for i, c := range tbl.Schema().Columns {
			names[i] = c.Name
		}
		fmt.Fprintln(w, strings.Join(names, ","))
		tbl.Scan(func(r storage.Row) bool {
			cells := make([]string, len(r))
			for i, v := range r {
				cells[i] = v.String()
			}
			fmt.Fprintln(w, strings.Join(cells, ","))
			return true
		})
		if err := w.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "tpcrgen:", err)
			os.Exit(1)
		}
		return
	}

	if *in != "" {
		fmt.Printf("TPC-R-style database (loaded from %s)\n\n", *in)
	} else {
		fmt.Printf("TPC-R-style database (scale %g, seed %d)\n\n", *scale, *seed)
	}
	fmt.Printf("%-10s %10s\n", "table", "rows")
	for _, name := range db.TableNames() {
		tbl := db.MustTable(name)
		fmt.Printf("%-10s %10d\n", name, tbl.Len())
	}

	// Distribution check: suppliers per nation and MIDDLE EAST share.
	nation := db.MustTable("nation")
	meNations := map[int64]bool{}
	nation.Scan(func(r storage.Row) bool {
		if r[2].Int() == 4 { // MIDDLE EAST region key
			meNations[r[0].Int()] = true
		}
		return true
	})
	meSuppliers := 0
	db.MustTable("supplier").Scan(func(r storage.Row) bool {
		if meNations[r[2].Int()] {
			meSuppliers++
		}
		return true
	})
	total := db.MustTable("supplier").Len()
	fmt.Printf("\nMIDDLE EAST: %d of 25 nations, %d of %d suppliers (%.1f%%)\n",
		len(meNations), meSuppliers, total, 100*float64(meSuppliers)/float64(total))
}
