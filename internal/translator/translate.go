package translator

import (
	"errors"
	"fmt"
	"strings"

	"archis/internal/obs"
	"archis/internal/temporal"
	"archis/internal/xquery"
)

// ErrUnsupported reports a query outside the translatable subset; the
// caller should evaluate it on the XML view directly.
var ErrUnsupported = errors.New("translator: query shape not supported; use the XML-view execution path")

func unsupported(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrUnsupported, fmt.Sprintf(format, args...))
}

// Translator turns XQuery-on-H-views into SQL/XML-on-H-tables.
type Translator struct {
	Catalog Catalog
	// TableMode emits plain relational columns instead of SQL/XML
	// constructors (the paper's `table` output bypass).
	TableMode bool
}

// Translate parses and translates one query.
func (tr *Translator) Translate(query string) (string, error) {
	return tr.TranslateTraced(query, nil)
}

// TranslateTraced is Translate with a "translate" span recorded under
// sp, capturing the emitted SQL as an attribute. Nil sp disables.
func (tr *Translator) TranslateTraced(query string, sp *obs.Span) (string, error) {
	ts := sp.Child("translate")
	defer ts.End()
	e, err := xquery.Parse(query)
	if err != nil {
		return "", err
	}
	sql, err := tr.TranslateExpr(e)
	if err == nil {
		ts.SetAttr("sql", sql)
	}
	return sql, err
}

// TranslateExpr translates a parsed query.
func (tr *Translator) TranslateExpr(e xquery.Expr) (string, error) {
	g := &gen{tr: tr, vars: map[string]*varInfo{}}
	return g.translateTop(e)
}

// ---- generator state ----

type entityInfo struct {
	view        *ViewInfo
	anchorAlias string // first tuple alias joined on id
	keyAlias    string // key-table alias, if materialized
}

const (
	kindEntity = iota
	kindAttr
)

type varInfo struct {
	name  string // XQuery variable name ("" for implicit)
	kind  int
	ent   *entityInfo
	attr  string // leaf name for attribute variables
	alias string // SQL tuple alias (attr vars and key tuples)
	table string
	preds []pendingPred
	isLet bool

	// time restriction detected for segment optimization (Section 6.3)
	tstartLE *temporal.Date
	tendGE   *temporal.Date
	// readsTend: the SQL reads the variable's tend other than through
	// its tendGE bound (markTend), so a segment restriction would
	// expose a stale frozen copy's tend.
	readsTend bool
}

// markTend records that the SQL reads v's tend value: the element's
// tend attribute, a temporal aggregate, tend() or any comparison other
// than the `tend >= date` bound the segment restriction rests on. A
// version live when its segment was archived keeps tend = 9999-12-31
// in the frozen copy; read alone, that segment reports the stale end.
func markTend(v *varInfo) {
	if v != nil {
		v.readsTend = true
	}
}

type pendingPred struct {
	expr xquery.Expr
	ctx  *varInfo
}

type fromItem struct {
	table, alias string
}

type gen struct {
	tr      *Translator
	vars    map[string]*varInfo
	attrs   []*varInfo // all materialized tuple vars, FROM order
	from    []fromItem
	joins   []string
	conds   []string
	orderBy []string
	aliasN  int
	// constructing counts the element constructors being translated;
	// inside one, a variable must bind one version (resolveToVar).
	constructing int
}

func (g *gen) nextAlias() string {
	g.aliasN++
	return fmt.Sprintf("T%d", g.aliasN)
}

// newTupleVar materializes a tuple variable over table, joining it to
// the entity's anchor on id.
func (g *gen) newTupleVar(ent *entityInfo, table string) string {
	alias := g.nextAlias()
	g.from = append(g.from, fromItem{table: table, alias: alias})
	if ent.anchorAlias == "" {
		ent.anchorAlias = alias
	} else {
		g.joins = append(g.joins, fmt.Sprintf("%s.id = %s.id", alias, ent.anchorAlias))
	}
	return alias
}

// attrVar returns (creating if needed) a tuple variable over the
// entity's attribute-history table for leaf.
func (g *gen) attrVar(ent *entityInfo, leaf string) (*varInfo, error) {
	leaf = strings.ToLower(leaf)
	if strings.EqualFold(leaf, ent.view.KeyLeaf) {
		return g.keyVarInfo(ent), nil
	}
	table, ok := ent.view.AttrTables[leaf]
	if !ok {
		return nil, fmt.Errorf("translator: view %s has no attribute %s", ent.view.DocName, leaf)
	}
	v := &varInfo{kind: kindAttr, ent: ent, attr: leaf, table: table}
	v.alias = g.newTupleVar(ent, table)
	g.attrs = append(g.attrs, v)
	return v, nil
}

// keyVar materializes (once) the key-table tuple for an entity.
func (g *gen) keyVar(ent *entityInfo) string {
	if ent.keyAlias == "" {
		ent.keyAlias = g.newTupleVar(ent, ent.view.KeyTable)
	}
	return ent.keyAlias
}

func (g *gen) keyVarInfo(ent *entityInfo) *varInfo {
	alias := g.keyVar(ent)
	col := ent.view.KeyColumn
	if col == "" {
		col = "id"
	}
	return &varInfo{kind: kindAttr, ent: ent, attr: col, table: ent.view.KeyTable, alias: alias}
}

// entityAnchor returns an alias whose id column identifies the entity,
// preferring existing members over materializing the key table.
func (g *gen) entityAnchor(ent *entityInfo) string {
	if ent.anchorAlias != "" {
		return ent.anchorAlias
	}
	return g.keyVar(ent)
}

// ---- top level ----

func (g *gen) translateTop(e xquery.Expr) (string, error) {
	switch x := e.(type) {
	case *xquery.FLWOR:
		return g.translateFLWOR(x, "")
	case *xquery.ComputedElement:
		if fl, ok := x.Content.(*xquery.FLWOR); ok {
			return g.translateFLWOR(fl, x.Tag)
		}
		return "", unsupported("top-level computed element without FLWOR content")
	case *xquery.DirectElement:
		if len(x.Children) == 1 && x.Children[0].Expr != nil {
			if fl, ok := x.Children[0].Expr.(*xquery.FLWOR); ok && len(x.Attrs) == 0 {
				return g.translateFLWOR(fl, x.Tag)
			}
		}
		return "", unsupported("top-level direct element")
	case *xquery.Path:
		// Bare path query: sugar for `for $x in path return $x`.
		fl := &xquery.FLWOR{
			Clauses: []xquery.FLWORClause{{Var: "#x", In: x}},
			Return:  &xquery.VarRef{Name: "#x"},
		}
		return g.translateFLWOR(fl, "")
	}
	return "", unsupported("top-level %T", e)
}

// translateFLWOR drives Algorithm 1. wrapper, when non-empty, is the
// element name aggregating all iterations (→ XMLAgg + GROUP BY).
func (g *gen) translateFLWOR(fl *xquery.FLWOR, wrapper string) (string, error) {
	var pending []pendingPred

	// Step 1: identify variable ranges.
	for _, cl := range fl.Clauses {
		v, preds, err := g.bindClause(cl)
		if err != nil {
			return "", err
		}
		g.vars[cl.Var] = v
		pending = append(pending, preds...)
	}
	if fl.Where != nil {
		pending = append(pending, pendingPred{expr: fl.Where, ctx: nil})
	}

	// Step 3: where conditions (path predicates + where clause).
	for _, p := range pending {
		sql, err := g.translateCond(p.expr, p.ctx)
		if err != nil {
			return "", err
		}
		if sql != "" {
			g.conds = append(g.conds, sql)
		}
	}

	// Order by.
	for _, spec := range fl.OrderBy {
		sql, err := g.translateScalar(spec.Key, nil)
		if err != nil {
			return "", err
		}
		if spec.Descending {
			sql += " DESC"
		}
		g.orderBy = append(g.orderBy, sql)
	}

	// Step 5: output generation.
	sel, groupEnt, aggregated, err := g.translateReturn(fl.Return)
	if err != nil {
		return "", err
	}

	var sb strings.Builder
	sb.WriteString("SELECT ")
	groupBy := ""
	switch {
	case wrapper != "" && !g.tr.TableMode:
		anchor := ""
		if groupEnt != nil {
			anchor = g.entityAnchor(groupEnt)
		}
		if anchor != "" && !aggregated {
			groupBy = anchor + ".id"
		}
		if aggregated {
			sb.WriteString(fmt.Sprintf("XMLElement(Name %q, %s)", wrapper, sel))
		} else {
			sb.WriteString(fmt.Sprintf("XMLElement(Name %q, XMLAgg(%s))", wrapper, sel))
		}
	default:
		sb.WriteString(sel)
	}

	if len(g.from) == 0 {
		return "", unsupported("no table variables identified")
	}

	// Step 6 (Section 6.3): segment restrictions. The paper's id
	// propagation is left to the engine, whose planner derives
	// `Tn.id = k` from the id joins and the id equality.
	g.applySegmentRestrictions()

	sb.WriteString(" FROM ")
	for i, f := range g.from {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(f.table + " AS " + f.alias)
	}
	conds := append(append([]string{}, g.joins...), g.conds...)
	if len(conds) > 0 {
		sb.WriteString(" WHERE " + strings.Join(conds, " AND "))
	}
	if groupBy != "" {
		sb.WriteString(" GROUP BY " + groupBy)
	}
	if len(g.orderBy) > 0 {
		sb.WriteString(" ORDER BY " + strings.Join(g.orderBy, ", "))
	}
	return sb.String(), nil
}

// bindClause resolves one for/let binding to a variable range.
func (g *gen) bindClause(cl xquery.FLWORClause) (*varInfo, []pendingPred, error) {
	path, ok := cl.In.(*xquery.Path)
	if !ok {
		return nil, nil, unsupported("binding of $%s to %T", cl.Var, cl.In)
	}
	var preds []pendingPred

	// doc("…")-rooted path.
	if fc, ok := path.Root.(*xquery.FuncCall); ok && (fc.Name == "doc" || fc.Name == "document") {
		if len(fc.Args) != 1 {
			return nil, nil, unsupported("doc() arity")
		}
		lit, ok := fc.Args[0].(*xquery.LiteralString)
		if !ok {
			return nil, nil, unsupported("dynamic doc() name")
		}
		view, ok := g.tr.Catalog.ViewByDoc(lit.Value)
		if !ok {
			return nil, nil, fmt.Errorf("translator: unknown document %q", lit.Value)
		}
		steps := path.Steps
		if len(steps) < 2 || steps[0].Name != view.RootName || steps[1].Name != view.EntityName {
			return nil, nil, unsupported("path %s/%s does not match view %s/%s",
				stepName(steps, 0), stepName(steps, 1), view.RootName, view.EntityName)
		}
		if len(steps[0].Preds) > 0 {
			return nil, nil, unsupported("predicate on document root")
		}
		ent := &entityInfo{view: view}
		entVar := &varInfo{name: cl.Var, kind: kindEntity, ent: ent, isLet: cl.IsLet}
		for _, p := range steps[1].Preds {
			preds = append(preds, pendingPred{expr: p, ctx: entVar})
		}
		if len(steps) == 2 {
			return entVar, preds, nil
		}
		if len(steps) == 3 {
			av, err := g.attrVar(ent, steps[2].Name)
			if err != nil {
				return nil, nil, err
			}
			av.name = cl.Var
			av.isLet = cl.IsLet
			for _, p := range steps[2].Preds {
				preds = append(preds, pendingPred{expr: p, ctx: av})
			}
			return av, preds, nil
		}
		return nil, nil, unsupported("path deeper than root/entity/attribute")
	}

	// $var-rooted path.
	if vr, ok := path.Root.(*xquery.VarRef); ok {
		base, ok := g.vars[vr.Name]
		if !ok {
			return nil, nil, fmt.Errorf("translator: unbound variable $%s", vr.Name)
		}
		if base.kind != kindEntity {
			return nil, nil, unsupported("path from non-entity variable $%s", vr.Name)
		}
		if len(path.Steps) != 1 {
			return nil, nil, unsupported("multi-step path from $%s", vr.Name)
		}
		st := path.Steps[0]
		av, err := g.attrVar(base.ent, st.Name)
		if err != nil {
			return nil, nil, err
		}
		av.name = cl.Var
		av.isLet = cl.IsLet
		for _, p := range st.Preds {
			preds = append(preds, pendingPred{expr: p, ctx: av})
		}
		return av, preds, nil
	}
	return nil, nil, unsupported("binding root %T", path.Root)
}

func stepName(steps []xquery.Step, i int) string {
	if i < len(steps) {
		return steps[i].Name
	}
	return "?"
}

// applySegmentRestrictions injects segno conditions for variables with
// detected time restrictions over clustered tables, unless the SQL
// reads the variable's tend value (markTend).
func (g *gen) applySegmentRestrictions() {
	for _, v := range g.attrs {
		view := v.ent.view
		if view.SegmentsFor == nil || v.tstartLE == nil || v.tendGE == nil || v.readsTend {
			continue
		}
		lo, hi := *v.tendGE, *v.tstartLE
		if hi < lo {
			continue
		}
		minSeg, maxSeg, ok := view.SegmentsFor(v.table, lo, hi)
		if !ok {
			continue
		}
		if minSeg == maxSeg {
			g.conds = append(g.conds, fmt.Sprintf("%s.segno = %d", v.alias, minSeg))
		} else {
			g.conds = append(g.conds,
				fmt.Sprintf("%s.segno >= %d", v.alias, minSeg),
				fmt.Sprintf("%s.segno <= %d", v.alias, maxSeg))
		}
	}
}
