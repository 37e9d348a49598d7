package translator

import (
	"fmt"
	"strings"

	"archis/internal/xquery"
)

// temporal aggregate functions mapped to engine aggregates (the
// paper's OLAP-function mapping, Section 5.4).
var temporalAggs = map[string]string{
	"tavg": "TAVG", "tsum": "TSUM", "tcount": "TCOUNT",
	"tmax": "TMAXAGG", "tmin": "TMINAGG",
}

// translateReturn produces the SELECT expression for the return
// clause. groupEnt is the entity whose id drives GROUP BY when the
// whole FLWOR is wrapped in an aggregating element; aggregated is true
// when the expression itself is an SQL aggregate.
func (g *gen) translateReturn(e xquery.Expr) (sel string, groupEnt *entityInfo, aggregated bool, err error) {
	switch x := e.(type) {
	case *xquery.VarRef, *xquery.ContextItem, *xquery.Path:
		v, err := g.resolveToVar(e, nil)
		if err != nil {
			return "", nil, false, err
		}
		if v.kind == kindEntity {
			return "", nil, false, unsupported("returning a whole entity element")
		}
		sel, err := g.xmlForAttr(v)
		return sel, v.ent, false, err

	case *xquery.FuncCall:
		if agg, ok := temporalAggs[x.Name]; ok {
			if len(x.Args) != 1 {
				return "", nil, false, unsupported("%s arity", x.Name)
			}
			v, err := g.resolveToVar(x.Args[0], nil)
			if err != nil {
				return "", nil, false, err
			}
			if v.kind != kindAttr {
				return "", nil, false, unsupported("%s over non-attribute", x.Name)
			}
			markTend(v)
			return fmt.Sprintf("%s(%s.%s, %s.tstart, %s.tend)",
				agg, v.alias, v.attr, v.alias, v.alias), v.ent, true, nil
		}
		if x.Name == "count" && len(x.Args) == 1 {
			if _, err := g.resolveToVar(x.Args[0], nil); err == nil {
				return "COUNT(*)", nil, true, nil
			}
		}
		if x.Name == "overlapinterval" && len(x.Args) == 2 {
			ts1, te1, v1, err := g.intervalOf(x.Args[0], nil)
			if err != nil {
				return "", nil, false, err
			}
			ts2, te2, v2, err := g.intervalOf(x.Args[1], nil)
			if err != nil {
				return "", nil, false, err
			}
			markTend(v1)
			markTend(v2)
			return fmt.Sprintf("OVERLAPINTERVAL(%s, %s, %s, %s)", ts1, te1, ts2, te2), nil, false, nil
		}
		s, err := g.translateScalar(x, nil)
		return s, nil, false, err

	case *xquery.DirectElement:
		return g.translateConstructor(x.Tag, directAttrs(x), directChildren(x))

	case *xquery.ComputedElement:
		var children []xquery.Expr
		if x.Content != nil {
			if seq, ok := x.Content.(*xquery.SeqExpr); ok {
				children = seq.Items
			} else {
				children = []xquery.Expr{x.Content}
			}
		}
		return g.translateConstructor(x.Tag, nil, children)

	case *xquery.SeqExpr:
		return "", nil, false, unsupported("sequence-valued return; wrap it in an element")
	}
	return "", nil, false, unsupported("return expression %T", e)
}

func directAttrs(x *xquery.DirectElement) []xquery.DirectAttr { return x.Attrs }

func directChildren(x *xquery.DirectElement) []xquery.Expr {
	var out []xquery.Expr
	for _, c := range x.Children {
		switch {
		case c.Elem != nil:
			out = append(out, c.Elem)
		case c.Expr != nil:
			if seq, ok := c.Expr.(*xquery.SeqExpr); ok {
				out = append(out, seq.Items...)
			} else {
				out = append(out, c.Expr)
			}
		default:
			out = append(out, &xquery.LiteralString{Value: c.Text})
		}
	}
	return out
}

// translateConstructor builds XMLElement(Name tag, attrs…, children…).
// The element is built once per joined row, so every variable inside
// must bind one version per binding of the FLWOR: a path from an
// entity variable or a let-bound variable, which bind them all, makes
// the constructor unsupported (resolveToVar) and the query falls back
// to the XML path.
func (g *gen) translateConstructor(tag string, attrs []xquery.DirectAttr, children []xquery.Expr) (string, *entityInfo, bool, error) {
	g.constructing++
	defer func() { g.constructing-- }()
	var parts []string
	var attrParts []string
	for _, a := range attrs {
		if len(a.Parts) != 1 {
			return "", nil, false, unsupported("multi-part constructor attribute")
		}
		p := a.Parts[0]
		var val string
		switch {
		case p.Expr != nil:
			s, err := g.translateScalar(p.Expr, nil)
			if err != nil {
				return "", nil, false, err
			}
			val = s
		default:
			val = sqlString(p.Text)
		}
		attrParts = append(attrParts, fmt.Sprintf("%s AS %q", val, a.Name))
	}
	if len(attrParts) > 0 {
		parts = append(parts, "XMLAttributes("+strings.Join(attrParts, ", ")+")")
	}
	var groupEnt *entityInfo
	for _, c := range children {
		sel, ent, agg, err := g.translateReturn(c)
		if err != nil {
			return "", nil, false, err
		}
		if agg {
			return "", nil, false, unsupported("aggregate inside element constructor")
		}
		if groupEnt == nil {
			groupEnt = ent
		}
		parts = append(parts, sel)
	}
	return fmt.Sprintf("XMLElement(Name %q%s)", tag, prefixComma(parts)), groupEnt, false, nil
}

func prefixComma(parts []string) string {
	if len(parts) == 0 {
		return ""
	}
	return ", " + strings.Join(parts, ", ")
}

// xmlForAttr renders one attribute tuple variable as its H-view
// element (or as plain columns in table mode).
func (g *gen) xmlForAttr(v *varInfo) (string, error) {
	markTend(v)
	col := v.alias + "." + v.attr
	if g.tr.TableMode {
		return fmt.Sprintf("%s, %s.tstart, %s.tend", col, v.alias, v.alias), nil
	}
	return fmt.Sprintf(
		"XMLElement(Name %q, XMLAttributes(%s.tstart AS \"tstart\", %s.tend AS \"tend\"), %s)",
		v.attr, v.alias, v.alias, col), nil
}
