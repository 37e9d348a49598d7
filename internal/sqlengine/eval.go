package sqlengine

import (
	"fmt"
	"strings"

	"archis/internal/relstore"
	"archis/internal/temporal"
	"archis/internal/xmltree"
)

// colBinding describes one column of an executor row: which FROM alias
// it came from and its name/type.
type colBinding struct {
	qual string
	name string
	typ  relstore.Type
}

// rowLayout maps (qualifier, column) to positions in executor rows.
type rowLayout struct {
	cols []colBinding
}

func (l *rowLayout) resolve(qual, name string) (int, error) {
	found := -1
	for i, c := range l.cols {
		if !strings.EqualFold(c.name, name) {
			continue
		}
		if qual != "" && !strings.EqualFold(c.qual, qual) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column %s", name)
		}
		found = i
	}
	if found < 0 {
		if qual != "" {
			return 0, fmt.Errorf("sql: unknown column %s.%s", qual, name)
		}
		return 0, fmt.Errorf("sql: unknown column %s", name)
	}
	return found, nil
}

// concat merges two layouts (for joins).
func (l *rowLayout) concat(r *rowLayout) *rowLayout {
	out := &rowLayout{cols: make([]colBinding, 0, len(l.cols)+len(r.cols))}
	out.cols = append(out.cols, l.cols...)
	out.cols = append(out.cols, r.cols...)
	return out
}

// evalFunc evaluates a compiled expression against one executor row.
type evalFunc func(row relstore.Row) (relstore.Value, error)

// holds evaluates predicate f on row; a nil f holds for every row.
func (f evalFunc) holds(row relstore.Row) (bool, error) {
	if f == nil {
		return true, nil
	}
	v, err := f(row)
	return err == nil && v.AsBool(), err
}

// forestTag is the synthetic element name wrapping an XML forest (the
// result of XMLAGG and XMLFOREST). Forests are spliced into parents
// and unwrapped at output time; the tag never reaches serialized XML.
const forestTag = "#forest"

// compileExpr builds an evaluator for e. Aggregate calls are not
// allowed here; grouping compiles them separately.
func (en *Engine) compileExpr(e Expr, layout *rowLayout) (evalFunc, error) {
	switch x := e.(type) {
	case *Literal:
		v := x.Value
		return func(relstore.Row) (relstore.Value, error) { return v, nil }, nil

	case *ColRef:
		pos, err := layout.resolve(x.Qual, x.Name)
		if err != nil {
			return nil, err
		}
		return func(row relstore.Row) (relstore.Value, error) { return row[pos], nil }, nil

	case *UnaryExpr:
		inner, err := en.compileExpr(x.X, layout)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			return func(row relstore.Row) (relstore.Value, error) {
				v, err := inner(row)
				if err != nil {
					return relstore.Null, err
				}
				if v.IsNull() {
					return relstore.Null, nil
				}
				return relstore.Bool(!v.AsBool()), nil
			}, nil
		case "-":
			return func(row relstore.Row) (relstore.Value, error) {
				v, err := inner(row)
				if err != nil || v.IsNull() {
					return relstore.Null, err
				}
				if v.Kind == relstore.TypeFloat {
					return relstore.Float(-v.F), nil
				}
				n, ok := v.AsInt()
				if !ok {
					return relstore.Null, fmt.Errorf("sql: cannot negate %s", v.Kind)
				}
				return relstore.Int(-n), nil
			}, nil
		}
		return nil, fmt.Errorf("sql: unknown unary op %s", x.Op)

	case *BinaryExpr:
		return en.compileBinary(x, layout)

	case *IsNullExpr:
		inner, err := en.compileExpr(x.X, layout)
		if err != nil {
			return nil, err
		}
		neg := x.Negate
		return func(row relstore.Row) (relstore.Value, error) {
			v, err := inner(row)
			if err != nil {
				return relstore.Null, err
			}
			return relstore.Bool(v.IsNull() != neg), nil
		}, nil

	case *InExpr:
		inner, err := en.compileExpr(x.X, layout)
		if err != nil {
			return nil, err
		}
		items := make([]evalFunc, len(x.List))
		for i, it := range x.List {
			if items[i], err = en.compileExpr(it, layout); err != nil {
				return nil, err
			}
		}
		neg := x.Negate
		return func(row relstore.Row) (relstore.Value, error) {
			v, err := inner(row)
			if err != nil {
				return relstore.Null, err
			}
			if v.IsNull() {
				return relstore.Null, nil
			}
			for _, item := range items {
				iv, err := item(row)
				if err != nil {
					return relstore.Null, err
				}
				if compareValues(v, iv) == 0 && !iv.IsNull() {
					return relstore.Bool(!neg), nil
				}
			}
			return relstore.Bool(neg), nil
		}, nil

	case *BetweenExpr:
		inner, err := en.compileExpr(x.X, layout)
		if err != nil {
			return nil, err
		}
		lo, err := en.compileExpr(x.Lo, layout)
		if err != nil {
			return nil, err
		}
		hi, err := en.compileExpr(x.Hi, layout)
		if err != nil {
			return nil, err
		}
		return func(row relstore.Row) (relstore.Value, error) {
			v, err := inner(row)
			if err != nil || v.IsNull() {
				return relstore.Null, err
			}
			lv, err := lo(row)
			if err != nil {
				return relstore.Null, err
			}
			hv, err := hi(row)
			if err != nil {
				return relstore.Null, err
			}
			return relstore.Bool(compareValues(v, lv) >= 0 && compareValues(v, hv) <= 0), nil
		}, nil

	case *FuncCall:
		fn, ok := en.scalarFuncs[x.Name]
		if !ok {
			if _, isAgg := en.aggFuncs[x.Name]; isAgg {
				return nil, fmt.Errorf("sql: aggregate %s not allowed here", x.Name)
			}
			return nil, fmt.Errorf("sql: unknown function %s", x.Name)
		}
		args := make([]evalFunc, len(x.Args))
		var err error
		for i, a := range x.Args {
			if args[i], err = en.compileExpr(a, layout); err != nil {
				return nil, err
			}
		}
		return func(row relstore.Row) (relstore.Value, error) {
			vals := make([]relstore.Value, len(args))
			for i, a := range args {
				v, err := a(row)
				if err != nil {
					return relstore.Null, err
				}
				vals[i] = v
			}
			return fn(en, vals)
		}, nil

	case *XMLElementExpr:
		attrs := make([]evalFunc, len(x.Attrs))
		var err error
		for i, a := range x.Attrs {
			if attrs[i], err = en.compileExpr(a.Expr, layout); err != nil {
				return nil, err
			}
		}
		children := make([]evalFunc, len(x.Children))
		for i, c := range x.Children {
			if children[i], err = en.compileExpr(c, layout); err != nil {
				return nil, err
			}
		}
		tag := x.Tag
		attrNames := make([]string, len(x.Attrs))
		for i, a := range x.Attrs {
			attrNames[i] = a.Name
		}
		return func(row relstore.Row) (relstore.Value, error) {
			el := xmltree.NewElement(tag)
			for i, a := range attrs {
				v, err := a(row)
				if err != nil {
					return relstore.Null, err
				}
				if v.IsNull() {
					continue
				}
				el.SetAttr(attrNames[i], v.Text())
			}
			for _, c := range children {
				v, err := c(row)
				if err != nil {
					return relstore.Null, err
				}
				appendXMLChild(el, v)
			}
			return relstore.XML(el), nil
		}, nil

	case *XMLForestExpr:
		items := make([]evalFunc, len(x.Items))
		var err error
		for i, it := range x.Items {
			if items[i], err = en.compileExpr(it.Expr, layout); err != nil {
				return nil, err
			}
		}
		names := make([]string, len(x.Items))
		for i, it := range x.Items {
			names[i] = it.Name
		}
		return func(row relstore.Row) (relstore.Value, error) {
			forest := xmltree.NewElement(forestTag)
			for i, it := range items {
				v, err := it(row)
				if err != nil {
					return relstore.Null, err
				}
				if v.IsNull() {
					continue
				}
				el := xmltree.NewElement(names[i])
				appendXMLChild(el, v)
				forest.Append(el)
			}
			return relstore.XML(forest), nil
		}, nil

	case *CaseExpr:
		conds := make([]evalFunc, len(x.Whens))
		results := make([]evalFunc, len(x.Whens))
		var err error
		for i, w := range x.Whens {
			if conds[i], err = en.compileExpr(w.Cond, layout); err != nil {
				return nil, err
			}
			if results[i], err = en.compileExpr(w.Result, layout); err != nil {
				return nil, err
			}
		}
		var elseFn evalFunc
		if x.Else != nil {
			if elseFn, err = en.compileExpr(x.Else, layout); err != nil {
				return nil, err
			}
		}
		return func(row relstore.Row) (relstore.Value, error) {
			for i, c := range conds {
				v, err := c(row)
				if err != nil {
					return relstore.Null, err
				}
				if v.AsBool() {
					return results[i](row)
				}
			}
			if elseFn != nil {
				return elseFn(row)
			}
			return relstore.Null, nil
		}, nil
	}
	return nil, fmt.Errorf("sql: cannot compile %T", e)
}

func (en *Engine) compileBinary(x *BinaryExpr, layout *rowLayout) (evalFunc, error) {
	l, err := en.compileExpr(x.L, layout)
	if err != nil {
		return nil, err
	}
	r, err := en.compileExpr(x.R, layout)
	if err != nil {
		return nil, err
	}
	op := x.Op
	switch op {
	case "AND":
		return func(row relstore.Row) (relstore.Value, error) {
			lv, err := l(row)
			if err != nil {
				return relstore.Null, err
			}
			if !lv.IsNull() && !lv.AsBool() {
				return relstore.Bool(false), nil
			}
			rv, err := r(row)
			if err != nil {
				return relstore.Null, err
			}
			if !rv.IsNull() && !rv.AsBool() {
				return relstore.Bool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return relstore.Null, nil
			}
			return relstore.Bool(true), nil
		}, nil
	case "OR":
		return func(row relstore.Row) (relstore.Value, error) {
			lv, err := l(row)
			if err != nil {
				return relstore.Null, err
			}
			if !lv.IsNull() && lv.AsBool() {
				return relstore.Bool(true), nil
			}
			rv, err := r(row)
			if err != nil {
				return relstore.Null, err
			}
			if !rv.IsNull() && rv.AsBool() {
				return relstore.Bool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return relstore.Null, nil
			}
			return relstore.Bool(false), nil
		}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		return func(row relstore.Row) (relstore.Value, error) {
			lv, err := l(row)
			if err != nil {
				return relstore.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return relstore.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return relstore.Null, nil
			}
			c := compareValues(lv, rv)
			var out bool
			switch op {
			case "=":
				out = c == 0
			case "!=":
				out = c != 0
			case "<":
				out = c < 0
			case "<=":
				out = c <= 0
			case ">":
				out = c > 0
			case ">=":
				out = c >= 0
			}
			return relstore.Bool(out), nil
		}, nil
	case "||":
		return func(row relstore.Row) (relstore.Value, error) {
			lv, err := l(row)
			if err != nil {
				return relstore.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return relstore.Null, err
			}
			return relstore.String_(lv.Text() + rv.Text()), nil
		}, nil
	case "+", "-", "*", "/":
		return func(row relstore.Row) (relstore.Value, error) {
			lv, err := l(row)
			if err != nil {
				return relstore.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return relstore.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return relstore.Null, nil
			}
			return arith(op, lv, rv)
		}, nil
	}
	return nil, fmt.Errorf("sql: unknown operator %s", op)
}

// arith performs numeric arithmetic with int/float promotion; DATE +
// INT adds days.
func arith(op string, a, b relstore.Value) (relstore.Value, error) {
	if a.Kind == relstore.TypeDate && b.Kind != relstore.TypeDate {
		n, ok := b.AsInt()
		if !ok {
			return relstore.Null, fmt.Errorf("sql: date arithmetic needs integer days")
		}
		switch op {
		case "+":
			return relstore.DateV(a.Date().AddDays(int(n))), nil
		case "-":
			return relstore.DateV(a.Date().AddDays(int(-n))), nil
		}
	}
	if a.Kind == relstore.TypeDate && b.Kind == relstore.TypeDate && op == "-" {
		return relstore.Int(int64(b.Date().DaysBetween(a.Date()))), nil
	}
	if a.Kind == relstore.TypeFloat || b.Kind == relstore.TypeFloat {
		af, aok := a.AsFloat()
		bf, bok := b.AsFloat()
		if !aok || !bok {
			return relstore.Null, fmt.Errorf("sql: non-numeric operand for %s", op)
		}
		switch op {
		case "+":
			return relstore.Float(af + bf), nil
		case "-":
			return relstore.Float(af - bf), nil
		case "*":
			return relstore.Float(af * bf), nil
		case "/":
			if bf == 0 {
				return relstore.Null, fmt.Errorf("sql: division by zero")
			}
			return relstore.Float(af / bf), nil
		}
	}
	ai, aok := a.AsInt()
	bi, bok := b.AsInt()
	if !aok || !bok {
		return relstore.Null, fmt.Errorf("sql: non-numeric operand for %s", op)
	}
	switch op {
	case "+":
		return relstore.Int(ai + bi), nil
	case "-":
		return relstore.Int(ai - bi), nil
	case "*":
		return relstore.Int(ai * bi), nil
	case "/":
		if bi == 0 {
			return relstore.Null, fmt.Errorf("sql: division by zero")
		}
		return relstore.Int(ai / bi), nil
	}
	return relstore.Null, fmt.Errorf("sql: unknown arith op %s", op)
}

// compareValues extends relstore.Compare with DATE-vs-string coercion,
// so the paper's `m.tstart <= "1994-05-06"` comparisons work.
func compareValues(a, b relstore.Value) int {
	if a.Kind == relstore.TypeDate && b.Kind == relstore.TypeString {
		if d, err := temporal.ParseDate(strings.TrimSpace(b.S)); err == nil {
			return relstore.Compare(a, relstore.DateV(d))
		}
	}
	if a.Kind == relstore.TypeString && b.Kind == relstore.TypeDate {
		return -compareValues(b, a)
	}
	return relstore.Compare(a, b)
}

// appendXMLChild adds an evaluated child value to an element: XML
// nodes are appended (forests spliced), NULL skipped, scalars become
// text.
func appendXMLChild(el *xmltree.Node, v relstore.Value) {
	switch {
	case v.IsNull():
	case v.Kind == relstore.TypeXML && v.X != nil:
		if v.X.Name == forestTag {
			for _, c := range v.X.Children {
				el.Append(c.Clone())
			}
			return
		}
		el.Append(v.X.Clone())
	default:
		el.AppendText(v.Text())
	}
}
