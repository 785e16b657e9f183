package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"abivm/internal/core"
	"abivm/internal/exec"
	"abivm/internal/plan"
	"abivm/internal/pubsub"
	"abivm/internal/sql"
	"abivm/internal/storage"
)

// recompute evaluates a view query from scratch over the live tables:
// sql.Parse → plan.Compile → exec.Collect. It is the oracle every final
// view content is compared with, and the base exec.recompute_ms prices.
func recompute(db *storage.DB, query string) ([]storage.Row, error) {
	sel, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	var scratch storage.Stats
	op, err := plan.Compile(sel, db, &plan.Options{Stats: &scratch})
	if err != nil {
		return nil, err
	}
	return exec.Collect(op)
}

// renderRow is the canonical text of a row. Floats print with nine
// significant digits, well inside core.FloatTolerance's reach, so rows
// that are approximately equal sort next to each other.
func renderRow(r storage.Row) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte('|')
		}
		if v.T == storage.TFloat {
			b.WriteString(strconv.FormatFloat(v.Float(), 'g', 9, 64))
		} else {
			b.WriteString(v.String())
		}
	}
	return b.String()
}

func sortedRows(rows []storage.Row) []storage.Row {
	out := make([]storage.Row, len(rows))
	keys := make([]string, len(rows))
	idx := make([]int, len(rows))
	for i, r := range rows {
		keys[i] = renderRow(r)
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

// multisetEqual reports whether two results hold the same rows with the
// same multiplicities, comparing floats through core.ApproxEq.
func multisetEqual(got, want []storage.Row) bool {
	if len(got) != len(want) {
		return false
	}
	g, w := sortedRows(got), sortedRows(want)
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return false
		}
		for c := range g[i] {
			a, b := g[i][c], w[i][c]
			if a.T == storage.TFloat && b.T == storage.TFloat {
				if !core.ApproxEq(a.Float(), b.Float()) {
					return false
				}
			} else if !storage.Equal(a, b) {
				return false
			}
		}
	}
	return true
}

// account counts operations attempted and failed. A failed operation is
// a publish or EndStep error, an admission rejection, a degraded
// notification, a non-degraded notification whose RefreshCost exceeds C,
// or a final view that differs from the oracle.
type account struct {
	attempted, failed int64
	firstFailure      string
}

func (a *account) fail(format string, args ...any) {
	a.failed++
	if a.firstFailure == "" {
		a.firstFailure = fmt.Sprintf(format, args...)
	}
}

// call accounts one publish or EndStep.
func (a *account) call(op string, err error) {
	a.attempted++
	if err != nil {
		a.fail("%s: %v", op, err)
	}
}

// notification accounts one delivered notification against its
// subscription's QoS bound.
func (a *account) notification(n pubsub.Notification, qos float64) {
	a.attempted++
	switch {
	case n.Degraded:
		a.fail("step %d: %s: degraded notification", n.Step, n.Subscription)
	case !core.ApproxLE(n.RefreshCost, qos):
		a.fail("step %d: %s: refresh cost %.6g > C %.6g", n.Step, n.Subscription, n.RefreshCost, qos)
	}
}

// view accounts one final view content against the oracle's.
func (a *account) view(name string, got, want []storage.Row) {
	a.attempted++
	if !multisetEqual(got, want) {
		a.fail("%s: final content (%d rows) differs from recompute oracle (%d rows)", name, len(got), len(want))
	}
}

// verify compares every subscription's final content with the oracle
// and returns the content hash over all of them, in registration order.
func (in *instance) verify(a *account) (string, error) {
	h := fnv.New64a()
	for _, v := range in.views {
		got, err := in.b.Result(v.name)
		if err != nil {
			return "", err
		}
		want, err := recompute(in.db, v.query)
		if err != nil {
			return "", fmt.Errorf("oracle: %s: %w", v.name, err)
		}
		a.view(v.name, got, want)
		fmt.Fprintf(h, "%s:%d\n", v.name, len(got))
		for _, r := range sortedRows(got) {
			fmt.Fprintln(h, renderRow(r))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
