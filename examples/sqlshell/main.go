// Sqlshell: a small interactive SQL shell over the generated TPC-R
// data, demonstrating the relational engine underneath the maintenance
// library — parser, planner (index selection, join ordering), EXPLAIN,
// and the executor.
//
// Usage:
//
//	go run ./examples/sqlshell                 # interactive
//	echo "SELECT COUNT(*) FROM partsupp" | go run ./examples/sqlshell
//	go run ./examples/sqlshell < examples/sqlshell/input.txt
//
// Commands: any SELECT query; `explain <query>` prints the physical
// plan; `tables` lists the catalog; `quit` (or `exit`) exits. A command
// may end in `;`.
package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"abivm/internal/exec"
	"abivm/internal/plan"
	"abivm/internal/sql"
	"abivm/internal/storage"
	"abivm/internal/tpcr"
)

func main() {
	db := storage.NewDB()
	cfg := tpcr.Config{ScaleFactor: 0.005, Seed: 1, SupplierSuppkeyIndex: true}
	if err := tpcr.Generate(db, cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("abivm sql shell — TPC-R data at scale 0.005; try:")
	fmt.Println(`  SELECT rname, COUNT(*) AS n FROM supplier AS s, nation, region GROUP BY rname ... ;`)
	fmt.Println("  explain SELECT ... ;   tables ;   quit")

	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("sql> ")
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(scanner.Text())
		// A command may end in one `;`, as the banner spells it.
		cmd := strings.TrimSpace(strings.TrimSuffix(line, ";"))
		switch {
		case line == "":
			continue
		case strings.EqualFold(cmd, "quit"), strings.EqualFold(cmd, "exit"):
			return
		case strings.EqualFold(cmd, "tables"):
			for _, name := range db.TableNames() {
				tbl := db.MustTable(name)
				cols := make([]string, len(tbl.Schema().Columns))
				for i, c := range tbl.Schema().Columns {
					cols[i] = c.Name + " " + c.Type.String()
				}
				fmt.Printf("  %s(%s) — %d rows\n", name, strings.Join(cols, ", "), tbl.Len())
			}
			continue
		}
		explainOnly := false
		if strings.HasPrefix(strings.ToLower(line), "explain ") {
			explainOnly = true
			line = strings.TrimSpace(line[len("explain "):])
		}
		if err := runQuery(db, line, explainOnly); err != nil {
			fmt.Println("error:", err)
		}
	}
}

func runQuery(db *storage.DB, query string, explainOnly bool) error {
	sel, err := sql.Parse(query)
	if err != nil {
		return err
	}
	op, err := plan.Compile(sel, db, nil)
	if err != nil {
		return err
	}
	if explainOnly {
		fmt.Print(plan.Explain(op))
		return nil
	}
	before := *db.Stats()
	rows, err := exec.Collect(op)
	if err != nil {
		return err
	}
	header := make([]string, len(op.Columns()))
	for i, c := range op.Columns() {
		header[i] = c.String()
	}
	fmt.Println(strings.Join(header, " | "))
	const maxShown = 25
	for i, r := range rows {
		if i == maxShown {
			fmt.Printf("... (%d more rows)\n", len(rows)-maxShown)
			break
		}
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	cost := storage.DefaultWeights().Cost(db.Stats().Sub(before))
	fmt.Printf("(%d rows, %.3f pseudo-ms)\n", len(rows), cost)
	return nil
}
