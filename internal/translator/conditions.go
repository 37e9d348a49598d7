package translator

import (
	"fmt"
	"strings"

	"archis/internal/temporal"
	"archis/internal/xquery"
)

func sqlString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

func sqlDate(d temporal.Date) string { return fmt.Sprintf("DATE '%s'", d) }

// constDate recognizes date-valued constant expressions.
func constDate(e xquery.Expr) (temporal.Date, bool) {
	switch x := e.(type) {
	case *xquery.LiteralString:
		d, err := temporal.ParseDate(strings.TrimSpace(x.Value))
		return d, err == nil
	case *xquery.FuncCall:
		if (x.Name == "xs:date" || x.Name == "date") && len(x.Args) == 1 {
			return constDate(x.Args[0])
		}
	}
	return 0, false
}

// resolveToVar maps an expression to the tuple variable it denotes,
// materializing implicit attribute variables for relative paths (the
// [name="Bob"] pattern).
func (g *gen) resolveToVar(e xquery.Expr, ctx *varInfo) (*varInfo, error) {
	switch x := e.(type) {
	case *xquery.VarRef:
		v, ok := g.vars[x.Name]
		if !ok {
			return nil, fmt.Errorf("translator: unbound variable $%s", x.Name)
		}
		if g.constructing > 0 && v.isLet {
			return nil, unsupported("let-bound $%s inside an element constructor", x.Name)
		}
		return v, nil
	case *xquery.ContextItem:
		if ctx == nil {
			return nil, unsupported("context item outside a predicate")
		}
		return ctx, nil
	case *xquery.Path:
		var base *varInfo
		var steps []xquery.Step
		switch root := x.Root.(type) {
		case *xquery.VarRef:
			v, ok := g.vars[root.Name]
			if !ok {
				return nil, fmt.Errorf("translator: unbound variable $%s", root.Name)
			}
			base = v
			steps = x.Steps
		case *xquery.ContextItem:
			base = ctx
			steps = x.Steps
		case nil:
			base = ctx
			steps = x.Steps
		default:
			return nil, unsupported("path root %T in condition", x.Root)
		}
		if base == nil {
			return nil, unsupported("relative path with no context")
		}
		// Self steps with no name are transparent.
		for len(steps) > 0 && steps[0].Axis == xquery.AxisSelf && len(steps[0].Preds) == 0 {
			steps = steps[1:]
		}
		if len(steps) == 0 {
			return base, nil
		}
		if len(steps) != 1 || steps[0].Axis != xquery.AxisChild || len(steps[0].Preds) > 0 {
			return nil, unsupported("complex path in condition")
		}
		if base.kind != kindEntity {
			return nil, unsupported("attribute path from non-entity variable")
		}
		if g.constructing > 0 {
			// The path binds every version of the attribute, and a
			// constructor holds them all in one element, where the
			// flat join would build one element per version.
			return nil, unsupported("path to %s inside an element constructor", steps[0].Name)
		}
		return g.attrVar(base.ent, steps[0].Name)
	}
	return nil, unsupported("cannot resolve %T to a table variable", e)
}

// scalarOf returns the value column of a tuple variable.
func (g *gen) scalarOf(v *varInfo) (string, error) {
	switch v.kind {
	case kindAttr:
		return v.alias + "." + v.attr, nil
	case kindEntity:
		return "", unsupported("entity variable $%s used as a scalar", v.name)
	}
	return "", unsupported("variable kind")
}

// intervalOf returns the (tstart, tend) column pair of an
// interval-bearing expression, plus the variable it restricts (nil for
// constants).
func (g *gen) intervalOf(e xquery.Expr, ctx *varInfo) (ts, te string, v *varInfo, err error) {
	if fc, ok := e.(*xquery.FuncCall); ok {
		switch fc.Name {
		case "telement":
			if len(fc.Args) != 2 {
				return "", "", nil, unsupported("telement arity")
			}
			d1, ok1 := constDate(fc.Args[0])
			d2, ok2 := constDate(fc.Args[1])
			if ok1 && ok2 {
				return sqlDate(d1), sqlDate(d2), nil, nil
			}
			s1, err := g.translateScalar(fc.Args[0], ctx)
			if err != nil {
				return "", "", nil, err
			}
			s2, err := g.translateScalar(fc.Args[1], ctx)
			if err != nil {
				return "", "", nil, err
			}
			return s1, s2, nil, nil
		case "tinterval":
			if len(fc.Args) != 1 {
				return "", "", nil, unsupported("tinterval arity")
			}
			return g.intervalOf(fc.Args[0], ctx)
		case "vinterval":
			if len(fc.Args) != 1 {
				return "", "", nil, unsupported("vinterval arity")
			}
			return g.validIntervalOf(fc.Args[0], ctx)
		}
	}
	rv, err := g.resolveToVar(e, ctx)
	if err != nil {
		return "", "", nil, err
	}
	if rv.kind == kindEntity {
		alias := g.keyVar(rv.ent)
		return alias + ".tstart", alias + ".tend", nil, nil
	}
	return rv.alias + ".tstart", rv.alias + ".tend", rv, nil
}

// validIntervalOf returns the (vstart, vend) column pair of an
// attribute variable, the valid-time twin of intervalOf. Entity
// variables (key tables) and legacy attribute tables without the pair
// are unsupported — the caller falls back to the XML bypass, where
// Item.ValidInterval synthesizes the default. No segment restriction
// is recorded: clustering is transaction-time ordered and valid
// intervals need not correlate with it.
func (g *gen) validIntervalOf(e xquery.Expr, ctx *varInfo) (vs, ve string, v *varInfo, err error) {
	rv, err := g.resolveToVar(e, ctx)
	if err != nil {
		return "", "", nil, err
	}
	if rv.kind != kindAttr {
		return "", "", nil, unsupported("valid time of a non-attribute variable")
	}
	view := rv.ent.view
	if view.HasValid == nil || !view.HasValid(rv.table) {
		return "", "", nil, unsupported("valid time on legacy table %s", rv.table)
	}
	return rv.alias + ".vstart", rv.alias + ".vend", rv, nil
}

// restrict records a detected time restriction on a variable for the
// Section 6.3 segment optimization.
func restrict(v *varInfo, lo, hi temporal.Date) {
	if v == nil {
		return
	}
	if v.tendGE == nil || lo < *v.tendGE {
		v.tendGE = &lo
	}
	if v.tstartLE == nil || hi > *v.tstartLE {
		v.tstartLE = &hi
	}
}

var intervalPredicates = map[string]string{
	"toverlaps": "TOVERLAPS", "tcontains": "TCONTAINS", "tequals": "TEQUALS",
	"tmeets": "TMEETS", "tprecedes": "TPRECEDES",
}

// translateCond translates a boolean expression. An empty string means
// the condition is implied by the join structure (e.g. not(empty($x))
// over a bound variable).
func (g *gen) translateCond(e xquery.Expr, ctx *varInfo) (string, error) {
	switch x := e.(type) {
	case *xquery.Binary:
		switch x.Op {
		case "and", "or":
			l, err := g.translateCond(x.L, ctx)
			if err != nil {
				return "", err
			}
			r, err := g.translateCond(x.R, ctx)
			if err != nil {
				return "", err
			}
			op := strings.ToUpper(x.Op)
			switch {
			case l == "" && r == "":
				return "", nil
			case l == "":
				return r, nil
			case r == "":
				return l, nil
			}
			return "(" + l + " " + op + " " + r + ")", nil
		case "=", "!=", "<", "<=", ">", ">=":
			return g.translateCmp(x.L, x.Op, x.R, ctx)
		}
		return "", unsupported("operator %s in condition", x.Op)
	case *xquery.FuncCall:
		return g.translateCondFunc(x, ctx)
	case *xquery.Quantified:
		return "", unsupported("quantified expression (some/every)")
	}
	return "", unsupported("condition %T", e)
}

func (g *gen) translateCondFunc(x *xquery.FuncCall, ctx *varInfo) (string, error) {
	if udf, ok := intervalPredicates[x.Name]; ok {
		if len(x.Args) != 2 {
			return "", unsupported("%s arity", x.Name)
		}
		ts1, te1, v1, err := g.intervalOf(x.Args[0], ctx)
		if err != nil {
			return "", err
		}
		ts2, te2, v2, err := g.intervalOf(x.Args[1], ctx)
		if err != nil {
			return "", err
		}
		// Constant second interval restricts the first variable (and
		// vice versa) for overlap-style predicates; compared with
		// anything else, a variable's tend is read (markTend).
		bounded := x.Name == "toverlaps" || x.Name == "tcontains" || x.Name == "tequals"
		for _, side := range []struct {
			v      *varInfo
			ts, te string
		}{{v1, ts2, te2}, {v2, ts1, te1}} {
			d1, ok1 := constDateSQL(side.ts)
			d2, ok2 := constDateSQL(side.te)
			if bounded && ok1 && ok2 {
				restrict(side.v, d1, d2)
			} else {
				markTend(side.v)
			}
		}
		return fmt.Sprintf("%s(%s, %s, %s, %s)", udf, ts1, te1, ts2, te2), nil
	}
	switch x.Name {
	case "not":
		if len(x.Args) != 1 {
			return "", unsupported("not arity")
		}
		// not(empty(X)): existence — implied when X is a join-bound
		// variable; TOVERLAPS when X is overlapinterval(a, b).
		if inner, ok := x.Args[0].(*xquery.FuncCall); ok && inner.Name == "empty" && len(inner.Args) == 1 {
			if oi, ok := inner.Args[0].(*xquery.FuncCall); ok && oi.Name == "overlapinterval" && len(oi.Args) == 2 {
				ts1, te1, v1, err := g.intervalOf(oi.Args[0], ctx)
				if err != nil {
					return "", err
				}
				ts2, te2, v2, err := g.intervalOf(oi.Args[1], ctx)
				if err != nil {
					return "", err
				}
				markTend(v1)
				markTend(v2)
				return fmt.Sprintf("TOVERLAPS(%s, %s, %s, %s)", ts1, te1, ts2, te2), nil
			}
			if _, err := g.resolveToVar(inner.Args[0], ctx); err == nil {
				// Inner-join semantics make the emptiness test implicit.
				return "", nil
			}
			return "", unsupported("empty() argument")
		}
		inner, err := g.translateCond(x.Args[0], ctx)
		if err != nil {
			return "", err
		}
		if inner == "" {
			return "", unsupported("negation of join-implied condition")
		}
		return "NOT (" + inner + ")", nil
	case "empty":
		return "", unsupported("empty() without not() needs anti-join")
	case "exists":
		if len(x.Args) == 1 {
			if _, err := g.resolveToVar(x.Args[0], ctx); err == nil {
				return "", nil
			}
		}
		return "", unsupported("exists() argument")
	}
	return "", unsupported("function %s() in condition", x.Name)
}

// constDateSQL recognizes a DATE 'yyyy-mm-dd' literal produced by the
// generator itself.
func constDateSQL(s string) (temporal.Date, bool) {
	if !strings.HasPrefix(s, "DATE '") || !strings.HasSuffix(s, "'") {
		return 0, false
	}
	d, err := temporal.ParseDate(s[len("DATE '") : len(s)-1])
	return d, err == nil
}

var cmpFlip = map[string]string{"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// translateCmp handles comparisons, including the tstart/tend special
// cases that keep conditions index- and zone-map-friendly, and records
// time restrictions for segment pruning.
func (g *gen) translateCmp(l xquery.Expr, op string, r xquery.Expr, ctx *varInfo) (string, error) {
	// Normalize: tstart()/tend() (and the valid-time twins) on the left.
	if isTimeFunc(r) && !isTimeFunc(l) {
		return g.translateCmp(r, cmpFlip[op], l, ctx)
	}
	if fc, ok := l.(*xquery.FuncCall); ok && (fc.Name == "vstart" || fc.Name == "vend") && len(fc.Args) == 1 {
		vs, ve, _, err := g.validIntervalOf(fc.Args[0], ctx)
		if err != nil {
			return "", err
		}
		rhs, err := g.translateScalar(r, ctx)
		if err != nil {
			return "", err
		}
		if fc.Name == "vstart" {
			return fmt.Sprintf("%s %s %s", vs, op, rhs), nil
		}
		// vend externalizes like tend: equality against current-date()
		// means "valid into the open future", the prunable sentinel
		// form; range comparisons run on the raw column.
		if op == "=" && isCurrentDate(r) {
			return fmt.Sprintf("%s = DATE '%s'", ve, temporal.Forever), nil
		}
		if op == "<=" || op == "<" || op == ">=" || op == ">" {
			return fmt.Sprintf("%s %s %s", ve, op, rhs), nil
		}
		return fmt.Sprintf("RTEND(%s) %s %s", ve, op, rhs), nil
	}
	if fc, ok := l.(*xquery.FuncCall); ok && (fc.Name == "tstart" || fc.Name == "tend") && len(fc.Args) == 1 {
		ts, te, v, err := g.intervalOf(fc.Args[0], ctx)
		if err != nil {
			return "", err
		}
		if fc.Name == "tstart" {
			rhs, err := g.translateScalar(r, ctx)
			if err != nil {
				return "", err
			}
			if d, ok := constDate(r); ok && (op == "<=" || op == "<") && v != nil {
				if v.tstartLE == nil || d > *v.tstartLE {
					v.tstartLE = &d
				}
			}
			return fmt.Sprintf("%s %s %s", ts, op, rhs), nil
		}
		// tend(x) semantics: the internal end-of-time reads as
		// current-date(). Equality against current-date() means "is
		// current", which translates to the prunable form
		// tend = 9999-12-31; range comparisons are safe on the raw
		// column because 9999-12-31 exceeds every query date.
		d, isConst := constDate(r)
		if isConst && (op == ">=" || op == ">") && v != nil {
			if v.tendGE == nil || d < *v.tendGE {
				v.tendGE = &d
			}
		} else {
			markTend(v)
		}
		if op == "=" && isCurrentDate(r) {
			return fmt.Sprintf("%s = DATE '%s'", te, temporal.Forever), nil
		}
		rhs, err := g.translateScalar(r, ctx)
		if err != nil {
			return "", err
		}
		if op == "<=" || op == "<" || op == ">=" || op == ">" {
			return fmt.Sprintf("%s %s %s", te, op, rhs), nil
		}
		return fmt.Sprintf("RTEND(%s) %s %s", te, op, rhs), nil
	}

	ls, err := g.translateScalar(l, ctx)
	if err != nil {
		return "", err
	}
	rs, err := g.translateScalar(r, ctx)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s %s %s", ls, op, rs), nil
}

func isTimeFunc(e xquery.Expr) bool {
	fc, ok := e.(*xquery.FuncCall)
	if !ok || len(fc.Args) != 1 {
		return false
	}
	switch fc.Name {
	case "tstart", "tend", "vstart", "vend":
		return true
	}
	return false
}

func isCurrentDate(e xquery.Expr) bool {
	fc, ok := e.(*xquery.FuncCall)
	return ok && fc.Name == "current-date"
}

// translateScalar translates a value expression.
func (g *gen) translateScalar(e xquery.Expr, ctx *varInfo) (string, error) {
	switch x := e.(type) {
	case *xquery.LiteralString:
		return sqlString(x.Value), nil
	case *xquery.LiteralNumber:
		if x.Value == float64(int64(x.Value)) {
			return fmt.Sprintf("%d", int64(x.Value)), nil
		}
		return fmt.Sprintf("%g", x.Value), nil
	case *xquery.FuncCall:
		switch x.Name {
		case "xs:date", "date":
			if d, ok := constDate(x); ok {
				return sqlDate(d), nil
			}
			return "", unsupported("dynamic xs:date()")
		case "current-date":
			return "CURRENT_DATE()", nil
		case "tstart":
			ts, _, _, err := g.intervalOf(x.Args[0], ctx)
			return ts, err
		case "tend":
			_, te, v, err := g.intervalOf(x.Args[0], ctx)
			if err != nil {
				return "", err
			}
			markTend(v)
			return fmt.Sprintf("RTEND(%s)", te), nil
		case "vstart":
			vs, _, _, err := g.validIntervalOf(x.Args[0], ctx)
			return vs, err
		case "vend":
			_, ve, _, err := g.validIntervalOf(x.Args[0], ctx)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("RTEND(%s)", ve), nil
		case "timespan":
			ts, te, v, err := g.intervalOf(x.Args[0], ctx)
			if err != nil {
				return "", err
			}
			markTend(v)
			return fmt.Sprintf("TSPAN(%s, %s)", ts, te), nil
		case "string", "number", "data":
			if len(x.Args) != 1 {
				return "", unsupported("%s arity", x.Name)
			}
			return g.translateScalar(x.Args[0], ctx)
		}
		return "", unsupported("function %s() as a scalar", x.Name)
	case *xquery.Binary:
		switch x.Op {
		case "+", "-", "*", "div":
			l, err := g.translateScalar(x.L, ctx)
			if err != nil {
				return "", err
			}
			r, err := g.translateScalar(x.R, ctx)
			if err != nil {
				return "", err
			}
			op := x.Op
			if op == "div" {
				op = "/"
			}
			return "(" + l + " " + op + " " + r + ")", nil
		}
		return "", unsupported("operator %s as a scalar", x.Op)
	case *xquery.VarRef, *xquery.ContextItem, *xquery.Path:
		v, err := g.resolveToVar(e, ctx)
		if err != nil {
			return "", err
		}
		return g.scalarOf(v)
	}
	return "", unsupported("scalar %T", e)
}
