package sqlengine

// The forced-plan oracle (DESIGN.md §12). ForEachPlan runs one SELECT
// under the planned choice, then under each alternative the planner
// passed over: per read, a full scan, a zone-pruned scan, each usable
// eq-index, or a row read of a BatchSource; per join fold, each
// strategy the fold can run; no band; no derived bounds; FROM order;
// one or two workers. Each dimension varies alone, with the others at
// the planned choice, and randomPlans seeded combinations vary them
// all, so the number of runs grows with the statement, not with the
// product of its choices. Tests require every plan to answer as the
// planned one; production statements run under planned, which pins
// nothing.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"

	"archis/internal/relstore"
)

// randomPlans is the number of seeded random combinations of choices
// ForEachPlan runs after the one-dimension alternatives.
const randomPlans = 4

// accessForce pins the access path of one read.
type accessForce int

const (
	accessPlanned accessForce = iota
	accessFull                // scan a base table with no zone bounds
	accessPruned              // zone-pruned scan, no index probe
	accessRowRead             // read a BatchSource row at a time (batchOf)
	accessIndex               // accessIndex+k probes the plan's k-th eq-index candidate
)

// apply overrides the access path planScan chose for p. The residual
// filter keeps every conjunct, so any path answers the same.
func (a accessForce) apply(p *scanPlan) {
	switch {
	case a == accessFull:
		p.bounds, p.eqIndex = nil, nil
	case a == accessPruned:
		p.eqIndex = nil
	case a >= accessIndex && int(a-accessIndex) < len(p.cands):
		c := p.cands[a-accessIndex]
		p.eqVal, p.eqIndex = c.val, c.ix
	}
}

// planForce pins physical alternatives of one SELECT; every zero field
// keeps the planned choice.
type planForce struct {
	access    map[string]accessForce // by lower-case alias
	folds     map[int]joinStrategy   // by fold position; a fold that cannot run it keeps its plan
	fromOrder bool                   // fold in FROM order
	noBand    bool                   // leave band conjuncts to the residual filter
	noDerived bool                   // infer no bounds
	workers   int                    // overrides Engine.Workers when > 0
}

// planned pins nothing: every production statement runs under it.
var planned = &planForce{}

// bind pins the forced access paths and worker count on a statement's
// sources.
func (f *planForce) bind(sources []*source) {
	if f == planned {
		return
	}
	for _, s := range sources {
		s.access = f.access[strings.ToLower(s.alias)]
		if f.workers > 0 {
			s.workers = f.workers
		}
	}
}

var stratNames = [...]string{
	stratIndex:          "index join",
	stratHashBuildInner: "hash join build=inner",
	stratHashBuildOuter: "hash join build=outer",
	stratNested:         "nested loop",
}

// choice is a named alternative: pin sets it on a fresh planForce.
type choice struct {
	name string
	pin  func(*planForce)
}

// ForEachPlan calls fn once per plan of the SELECT in sql — first the
// planned one, named "planned", then every alternative — with the
// plan's name and a function that runs the statement under that plan
// against sn (a freshly pinned snapshot per run when sn is nil). It
// stops at the first error fn returns.
func ForEachPlan(en *Engine, sn *relstore.Snapshot, sql string, fn func(plan string, run func() (*Result, error)) error) error {
	stmt, err := Parse(sql)
	if err != nil {
		return err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return fmt.Errorf("sql: ForEachPlan runs a SELECT, not %T", stmt)
	}
	plans, err := en.alternatives(sel, sn, sql)
	if err != nil {
		return err
	}
	for _, c := range plans {
		f := &planForce{access: map[string]accessForce{}, folds: map[int]joinStrategy{}}
		c.pin(f)
		run := func() (*Result, error) {
			pinned, release := en.snapshotFor(sn)
			defer release()
			return en.execSelect(context.Background(), sel, nil, pinned, f)
		}
		if err := fn(c.name, run); err != nil {
			return err
		}
	}
	return nil
}

// alternatives plans stmt once and lists its plans: the planned one,
// each alternative of each dimension, then randomPlans combinations
// that take a random choice (or the planned one) in every dimension,
// seeded by the statement text.
func (en *Engine) alternatives(stmt *SelectStmt, sn *relstore.Snapshot, sql string) ([]choice, error) {
	pinned, release := en.snapshotFor(sn)
	defer release()
	sources, err := en.bindSources(stmt, pinned)
	if err != nil {
		return nil, err
	}
	perAlias := map[string][]Expr{}
	split, err := en.splitConjuncts(context.Background(), stmt, sources, perAlias, planned)
	if err != nil {
		return nil, err
	}
	var dims [][]choice
	one := func(name string, pin func(*planForce)) { dims = append(dims, []choice{{name, pin}}) }
	for _, s := range sources {
		a := strings.ToLower(s.alias)
		p, err := en.planScan(s, perAlias[a], sources)
		if err != nil {
			return nil, err
		}
		var d []choice
		add := func(name string, af accessForce) {
			d = append(d, choice{a + ": " + name, func(f *planForce) { f.access[a] = af }})
		}
		// Only a base table's zone bounds are pure pruning: a virtual
		// table may read meaning into them (the segment store reads a
		// segno range as that range's snapshot), so its bounds stay.
		// Choices that coincide with the planned path are left out.
		if s.base != nil && (len(p.bounds) > 0 || p.eqIndex != nil) {
			add("full scan", accessFull)
		}
		if p.eqIndex != nil {
			add("pruned scan", accessPruned)
		}
		for k, c := range p.cands {
			if c.ix != p.eqIndex {
				add(fmt.Sprintf("index %s #%d", c.ix.Name, k), accessIndex+accessForce(k))
			}
		}
		if en.batchOf(s) != nil {
			add("row read", accessRowRead)
		}
		dims = append(dims, d)
	}
	var workers []choice
	for w := 1; w <= 2; w++ {
		if w != en.scanWorkers() {
			workers = append(workers, choice{fmt.Sprintf("workers=%d", w), func(f *planForce) { f.workers = w }})
		}
	}
	dims = append(dims, workers)
	if len(sources) > 1 {
		jp, err := en.planJoins(sources, perAlias, split.multi, planned)
		if err != nil {
			return nil, err
		}
		for fi, fp := range jp.folds {
			var d []choice
			for st := stratIndex; st <= stratNested; st++ {
				if st != fp.strategy && fp.can(st) {
					d = append(d, choice{fmt.Sprintf("fold %d: %s", fi+1, stratNames[st]), func(f *planForce) { f.folds[fi] = st }})
				}
			}
			dims = append(dims, d)
		}
		one("no band", func(f *planForce) { f.noBand = true })
		if len(split.derived) > 0 {
			one("no derived bounds", func(f *planForce) { f.noDerived = true })
		}
		if !slices.IsSorted(jp.order) {
			one("FROM order", func(f *planForce) { f.fromOrder = true })
		}
	}

	plans := []choice{{"planned", func(*planForce) {}}}
	for _, d := range dims {
		plans = append(plans, d...)
	}
	h := fnv.New64a()
	h.Write([]byte(sql))
	r := rand.New(rand.NewSource(int64(h.Sum64())))
	for n := 0; n < randomPlans; n++ {
		var picked []choice
		var names []string
		for _, d := range dims {
			if k := r.Intn(len(d) + 1); k < len(d) {
				picked = append(picked, d[k])
				names = append(names, d[k].name)
			}
		}
		plans = append(plans, choice{"random: " + strings.Join(names, ", "), func(f *planForce) {
			for _, c := range picked {
				c.pin(f)
			}
		}})
	}
	return plans, nil
}
