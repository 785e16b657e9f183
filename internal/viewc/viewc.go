// Package viewc is the SQL→IVM compiler front end: it turns a view
// definition (one SELECT, or a views.sql catalog of CREATE MATERIALIZED
// VIEW statements) into a fully provisioned subscription. Compilation
// runs the whole provisioning pipeline the paper assumes exists around
// its planner: parse and bind the query, derive the per-base-table delta
// plan (ivm.PlanSelect), calibrate one batch-cost function f_i(k) per
// FROM alias by driving seeded update batches through a sandboxed clone
// of the base tables (costmodel.Sandbox — the compile-target database is
// never written), fit the requested functional form, validate it against
// the CostFunc contract (costfn.CheckInvariants), and package the result
// as a pubsub.Subscription plus a human-readable EXPLAIN IVM report.
package viewc

import (
	"errors"
	"fmt"
	"strings"

	"abivm/internal/core"
	"abivm/internal/costfn"
	"abivm/internal/costmodel"
	"abivm/internal/dataflow"
	"abivm/internal/ivm"
	"abivm/internal/pubsub"
	"abivm/internal/sql"
	"abivm/internal/storage"
)

// DefaultQoS is the response-time constraint used when Options.QoS is
// unset — the demo workload's bound.
const DefaultQoS = 40.0

// defaultKs is the calibration grid of batch sizes, weighed with
// storage.DefaultWeights.
var defaultKs = []int{1, 2, 4, 8, 16, 32}

// Options configures compilation. The zero value is usable: linear fit,
// seed 0, notify every step, DefaultQoS.
type Options struct {
	// Name is the subscription name; "view" when empty. CompileCatalog
	// overrides it per statement.
	Name string
	// QoS is the response-time constraint C; DefaultQoS when 0.
	QoS float64
	// Fit selects the fitted functional form: "linear" (default) or
	// "piecewise".
	Fit string
	// Seed drives the calibration workload generators; the same seed,
	// database, and query always produce byte-identical models.
	Seed int64
	// Condition is the notification condition; Every(1) when nil.
	Condition pubsub.Condition
	// Dataflow targets the shared delta-dataflow runtime: the EXPLAIN
	// report gains the canonical operator signatures the view would
	// intern into the shared graph (internal/dataflow) and the identities
	// of the join-input arrangements under them, so an operator can read
	// off exactly which sub-plans and which indexed inputs two views will
	// share before subscribing them. The packaged subscription is unchanged — the
	// broker's SetSharedDataflow decides which runtime executes it.
	Dataflow bool
}

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "view"
	}
	if o.QoS == 0 {
		o.QoS = DefaultQoS
	}
	if o.Fit == "" {
		o.Fit = "linear"
	}
	if o.Condition == nil {
		o.Condition = pubsub.Every(1)
	}
	return o
}

// Calibration is the measured and fitted cost curve of one FROM alias.
type Calibration struct {
	Alias string
	Table string
	// Measurement holds the sampled (k, cost) curve.
	Measurement *costmodel.Measurement
	// Func is the fitted cost function backing the model for this alias.
	Func core.CostFunc
	// Residuals is measured minus fitted cost at each sampled k.
	Residuals []float64
	// MaxAbsResidual is the largest |residual| — the fit quality headline.
	MaxAbsResidual float64
}

// FuncString renders the fitted cost function for reports and JSON
// output.
func (c Calibration) FuncString() string { return describeFunc(c.Func) }

// CompiledView is a fully provisioned view: delta plan, calibrated cost
// model, and QoS parameters, ready to subscribe (Subscription).
type CompiledView struct {
	Name         string
	QoS          float64
	Query        string // canonical view SQL
	Plan         *ivm.DeltaPlan
	Fit          string
	Seed         int64
	Calibrations []Calibration
	Model        *core.CostModel
	// Dataflow mirrors Options.Dataflow; when set, Explain appends the
	// shared-runtime operator signatures and arrangements.
	Dataflow bool

	cond pubsub.Condition
	db   *storage.DB // compile-target database, for Explain
}

// Subscription packages the compiled view as a broker subscription.
func (cv *CompiledView) Subscription() pubsub.Subscription {
	return pubsub.Subscription{
		Name:      cv.Name,
		Query:     cv.Query,
		Condition: cv.cond,
		Model:     cv.Model,
		QoS:       cv.QoS,
	}
}

// Compile compiles one view definition against db. db provides the base
// tables the view reads; calibration happens in a sandboxed clone, so db
// is only ever read. Unmaintainable constructs surface as diagnostics of
// the form `view "name": position N: <feature> is not maintainable`.
func Compile(db *storage.DB, query string, opts Options) (*CompiledView, error) {
	sel, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return compileSelect(db, sel, opts)
}

// CompileCatalog parses a views.sql catalog and compiles every view in
// it. All diagnostics are collected (joined), not just the first, so one
// compiler run reports every broken view in the catalog.
func CompileCatalog(db *storage.DB, src string, opts Options) ([]*CompiledView, error) {
	cat, err := sql.ParseCatalog(src)
	if err != nil {
		return nil, err
	}
	var out []*CompiledView
	var diags []error
	for _, def := range cat {
		o := opts
		o.Name = def.Name
		o.QoS = def.QoS
		cv, err := compileSelect(db, def.Query, o)
		if err != nil {
			diags = append(diags, err)
			continue
		}
		out = append(out, cv)
	}
	if len(diags) > 0 {
		return out, errors.Join(diags...)
	}
	return out, nil
}

func compileSelect(db *storage.DB, sel *sql.Select, opts Options) (*CompiledView, error) {
	opts = opts.withDefaults()
	plan, err := ivm.PlanSelect(sel)
	if err != nil {
		return nil, diagnose(opts.Name, err)
	}
	query := sel.String()
	sb, err := costmodel.NewSandbox(db, query, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("view %q: calibration sandbox: %w", opts.Name, err)
	}
	maxK := 2 * defaultKs[len(defaultKs)-1]
	cv := &CompiledView{
		Name: opts.Name, QoS: opts.QoS, Query: query, Plan: plan,
		Fit: opts.Fit, Seed: opts.Seed, cond: opts.Condition, db: db,
		Dataflow: opts.Dataflow,
	}
	if opts.Dataflow {
		// Surface unmappable constructs at compile time, not at
		// subscribe time: the signature build exercises the same spec
		// pass Graph.Subscribe runs.
		if _, _, err := cv.OperatorSignatures(); err != nil {
			return nil, fmt.Errorf("view %q: dataflow operators: %w", opts.Name, err)
		}
	}
	funcs := make([]core.CostFunc, 0, len(plan.Sources))
	for _, src := range plan.Sources {
		ms, err := sb.Measure(src.Alias, defaultKs, storage.DefaultWeights())
		if err != nil {
			return nil, fmt.Errorf("view %q: calibrating %s: %w", opts.Name, src.Alias, err)
		}
		f, err := ms.Fit(opts.Fit)
		if err != nil {
			return nil, fmt.Errorf("view %q: fitting %s: %w", opts.Name, src.Alias, err)
		}
		if err := costfn.CheckInvariants(f, maxK); err != nil {
			return nil, fmt.Errorf("view %q: fitted cost function for %s violates the CostFunc contract: %w", opts.Name, src.Alias, err)
		}
		cal := Calibration{Alias: src.Alias, Table: src.Table, Measurement: ms, Func: f}
		for i, k := range ms.K {
			r := ms.Cost[i] - f.Cost(k)
			cal.Residuals = append(cal.Residuals, r)
			if r < 0 {
				r = -r
			}
			if r > cal.MaxAbsResidual {
				cal.MaxAbsResidual = r
			}
		}
		cv.Calibrations = append(cv.Calibrations, cal)
		funcs = append(funcs, f)
	}
	cv.Model = core.NewCostModel(funcs...)
	return cv, nil
}

// diagnose rewrites an unsupported-feature error into the compiler's
// view-qualified diagnostic form; other errors are wrapped verbatim.
func diagnose(name string, err error) error {
	var ue *sql.UnsupportedError
	if errors.As(err, &ue) {
		if ue.Pos > 0 {
			return fmt.Errorf("view %q: position %d: %s is not maintainable", name, ue.Pos, ue.Feature)
		}
		return fmt.Errorf("view %q: %s is not maintainable", name, ue.Feature)
	}
	return fmt.Errorf("view %q: %w", name, err)
}

// describeFunc renders a fitted cost function for the report.
func describeFunc(f core.CostFunc) string {
	switch x := f.(type) {
	case costfn.Linear:
		return fmt.Sprintf("cost(k) = %.4g*k + %.4g", x.A, x.B)
	case *costfn.PiecewiseLinear:
		var parts []string
		for _, kn := range x.Knots() {
			parts = append(parts, fmt.Sprintf("(%d,%.4g)", kn.K, kn.Cost))
		}
		return "piecewise-linear knots " + strings.Join(parts, " ")
	}
	return fmt.Sprintf("%v", f)
}

// Explain renders the EXPLAIN IVM report: the delta plan (with the
// physical per-source change-cursor plans over the compile-target
// database), the fitted coefficients, and the calibration residuals. The
// output is deterministic in (database, query, options).
func (cv *CompiledView) Explain() (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "EXPLAIN IVM view %q (QoS %g, fit %s, seed %d)\n", cv.Name, cv.QoS, cv.Fit, cv.Seed)
	planOut, err := cv.Plan.Explain(cv.db.Table)
	if err != nil {
		return "", err
	}
	sb.WriteString(planOut)
	sb.WriteString("calibration:\n")
	for _, cal := range cv.Calibrations {
		fmt.Fprintf(&sb, "  %s (table %s): %s\n", cal.Alias, cal.Table, describeFunc(cal.Func))
		for i, k := range cal.Measurement.K {
			fmt.Fprintf(&sb, "    k=%-4d measured %9.4f  fitted %9.4f  residual %+8.4f\n",
				k, cal.Measurement.Cost[i], cal.Func.Cost(k), cal.Residuals[i])
		}
		fmt.Fprintf(&sb, "    max |residual| = %.4f\n", cal.MaxAbsResidual)
	}
	if cv.Dataflow {
		sigs, sink, err := cv.OperatorSignatures()
		if err != nil {
			return "", err
		}
		sb.WriteString("dataflow operators (canonical signatures, leaves first):\n")
		for _, sig := range sigs {
			fmt.Fprintf(&sb, "  %s\n", sig)
		}
		fmt.Fprintf(&sb, "  sink: %s\n", sink)
		arrs, err := dataflow.Arrangements(cv.Plan, cv.schemaOf)
		if err != nil {
			return "", err
		}
		if len(arrs) > 0 {
			sb.WriteString("dataflow arrangements (join inputs indexed once per identity, whatever joins read them):\n")
			for _, id := range arrs {
				fmt.Fprintf(&sb, "  %s\n", id)
			}
		}
	}
	return sb.String(), nil
}

// OperatorSignatures returns the canonical signatures of the operators
// this view compiles into under the shared delta-dataflow runtime, in
// post-order (leaves first, the view's top operator last), and the
// projection its sink applies when it folds — the view's own SELECT
// list, which is no operator. Two views share exactly the operators
// whose signatures coincide, so diffing two views' signature lists
// predicts the shared graph's shape.
func (cv *CompiledView) OperatorSignatures() (ops []string, sink string, err error) {
	return dataflow.Signatures(cv.Plan, cv.schemaOf)
}

func (cv *CompiledView) schemaOf(table string) (*storage.Schema, error) {
	tbl, err := cv.db.Table(table)
	if err != nil {
		return nil, err
	}
	return tbl.Schema(), nil
}
