package sqlengine

import (
	"testing"

	"archis/internal/relstore"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

func TestParseSimpleSelect(t *testing.T) {
	stmt := mustParse(t, `select id, name from employee where id = 42`).(*SelectStmt)
	if len(stmt.Select) != 2 || len(stmt.From) != 1 || stmt.Where == nil {
		t.Fatalf("bad parse: %+v", stmt)
	}
	if stmt.From[0].Table != "employee" || stmt.From[0].Alias != "employee" {
		t.Errorf("from = %+v", stmt.From[0])
	}
}

func TestParseAliases(t *testing.T) {
	stmt := mustParse(t, `select e.name n2, d.deptno as dn from employee_name as e, employee_deptno d`).(*SelectStmt)
	if stmt.From[0].Alias != "e" || stmt.From[1].Alias != "d" {
		t.Errorf("aliases: %+v", stmt.From)
	}
	if stmt.Select[0].Alias != "n2" || stmt.Select[1].Alias != "dn" {
		t.Errorf("select aliases: %+v", stmt.Select)
	}
}

func TestParsePaperQuery1Translation(t *testing.T) {
	// The paper's SQL/XML translation of QUERY 1 (Section 5.3).
	sql := `
select XMLElement (Name "title_history",
  XMLAgg (XMLElement (Name "title",
    XMLAttributes (T.tstart as "tstart", T.tend as "tend"), T.title)))
from employee_title as T, employee_name as N
where N.id = T.id and N.name = "Bob"
group by N.id`
	stmt := mustParse(t, sql).(*SelectStmt)
	el, ok := stmt.Select[0].Expr.(*XMLElementExpr)
	if !ok || el.Tag != "title_history" {
		t.Fatalf("outer element: %+v", stmt.Select[0].Expr)
	}
	agg, ok := el.Children[0].(*FuncCall)
	if !ok || agg.Name != "XMLAGG" {
		t.Fatalf("inner agg: %+v", el.Children[0])
	}
	inner, ok := agg.Args[0].(*XMLElementExpr)
	if !ok || inner.Tag != "title" || len(inner.Attrs) != 2 {
		t.Fatalf("inner element: %+v", agg.Args[0])
	}
	if inner.Attrs[0].Name != "tstart" || inner.Attrs[1].Name != "tend" {
		t.Errorf("attr names: %+v", inner.Attrs)
	}
	if len(stmt.GroupBy) != 1 {
		t.Error("missing group by")
	}
}

func TestParseDoubleQuotedLiterals(t *testing.T) {
	stmt := mustParse(t, `select name from e where tstart >= "02/04/2003" and name = 'Bob'`).(*SelectStmt)
	conj := splitAnd(stmt.Where, nil)
	if len(conj) != 2 {
		t.Fatalf("conjuncts: %d", len(conj))
	}
	lit := conj[0].(*BinaryExpr).R.(*Literal)
	if lit.Value.S != "02/04/2003" {
		t.Errorf("double-quoted literal = %q", lit.Value.S)
	}
}

func TestParseDateLiteral(t *testing.T) {
	stmt := mustParse(t, `select name from e where d = DATE '1994-05-06'`).(*SelectStmt)
	lit := stmt.Where.(*BinaryExpr).R.(*Literal)
	if lit.Value.Kind != relstore.TypeDate || lit.Value.Text() != "1994-05-06" {
		t.Errorf("date literal = %v", lit.Value)
	}
}

func TestParseDML(t *testing.T) {
	ins := mustParse(t, `insert into emp (id, name) values (1, 'Bob'), (2, 'Alice')`).(*InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Errorf("insert: %+v", ins)
	}
	upd := mustParse(t, `update emp set salary = salary * 2, title = 'Boss' where id = 1`).(*UpdateStmt)
	if len(upd.Set) != 2 || upd.Where == nil {
		t.Errorf("update: %+v", upd)
	}
	del := mustParse(t, `delete from emp where id = 1`).(*DeleteStmt)
	if del.Table != "emp" || del.Where == nil {
		t.Errorf("delete: %+v", del)
	}
}

func TestParseDDL(t *testing.T) {
	ct := mustParse(t, `create table emp (id INT, name VARCHAR(40), salary INT, hired DATE)`).(*CreateTableStmt)
	if len(ct.Columns) != 4 || ct.Columns[3].Type != relstore.TypeDate {
		t.Errorf("create table: %+v", ct)
	}
	ci := mustParse(t, `create index ix on emp (id, hired)`).(*CreateIndexStmt)
	if ci.Name != "ix" || len(ci.Columns) != 2 {
		t.Errorf("create index: %+v", ci)
	}
	dt := mustParse(t, `drop table emp`).(*DropTableStmt)
	if dt.Name != "emp" {
		t.Errorf("drop: %+v", dt)
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt := mustParse(t, `select a from t where a = 1 or b = 2 and c = 3`).(*SelectStmt)
	or, ok := stmt.Where.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top op: %+v", stmt.Where)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Errorf("AND should bind tighter: %+v", or.R)
	}
	stmt2 := mustParse(t, `select a from t where a + 1 * 2 = 3`).(*SelectStmt)
	add := stmt2.Where.(*BinaryExpr).L.(*BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("arith: %+v", add)
	}
	if mul := add.R.(*BinaryExpr); mul.Op != "*" {
		t.Errorf("* should bind tighter: %+v", add.R)
	}
}

func TestParseNotInBetweenIsNull(t *testing.T) {
	stmt := mustParse(t, `select a from t where a not in (1, 2) and b between 3 and 5 and c is not null and not d = 1`).(*SelectStmt)
	conj := splitAnd(stmt.Where, nil)
	if len(conj) != 4 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	if in := conj[0].(*InExpr); !in.Negate || len(in.List) != 2 {
		t.Errorf("not in: %+v", conj[0])
	}
	if _, ok := conj[1].(*BetweenExpr); !ok {
		t.Errorf("between: %+v", conj[1])
	}
	if isn := conj[2].(*IsNullExpr); !isn.Negate {
		t.Errorf("is not null: %+v", conj[2])
	}
	if un := conj[3].(*UnaryExpr); un.Op != "NOT" {
		t.Errorf("not: %+v", conj[3])
	}
}

func TestParseOrderLimit(t *testing.T) {
	stmt := mustParse(t, `select a from t order by a desc, b limit 10`).(*SelectStmt)
	if len(stmt.OrderBy) != 2 || !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Errorf("order: %+v", stmt.OrderBy)
	}
	if stmt.Limit != 10 {
		t.Errorf("limit = %d", stmt.Limit)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select",
		"select from t",
		"select a from",
		"select a from t where",
		"insert into t",
		"create view v",
		"select a from t limit x",
		"select a from t trailing garbage (",
		"select xmlelement(noname) from t",
		"select a from t where a = 'unterminated",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q): expected error", sql)
		}
	}
}

func TestParseComments(t *testing.T) {
	stmt := mustParse(t, "select a -- trailing comment\nfrom t -- another\n").(*SelectStmt)
	if len(stmt.Select) != 1 {
		t.Error("comment parsing broken")
	}
}

func TestParseCase(t *testing.T) {
	stmt := mustParse(t, `select case when a = 1 then 'one' when a = 2 then 'two' else 'many' end from t`).(*SelectStmt)
	c := stmt.Select[0].Expr.(*CaseExpr)
	if len(c.Whens) != 2 || c.Else == nil {
		t.Errorf("case: %+v", c)
	}
}

func TestParseBlockCommentsAndParenWrapping(t *testing.T) {
	for _, sql := range []string{
		"/* leading */ select a from t",
		"select /* mid */ a from t /* trailing */",
		"select a /* multi\nline */ from t",
		"(select a from t)",
		"((select a from t))",
		"-- note\n(select a from t);",
	} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Errorf("Parse(%q): %v", sql, err)
			continue
		}
		if s, ok := stmt.(*SelectStmt); !ok || len(s.Select) != 1 {
			t.Errorf("Parse(%q) = %T", sql, stmt)
		}
	}
	for _, sql := range []string{
		"(select a from t",     // unbalanced
		"(select a from t))",   // extra close
		"select a from t /* x", // unterminated comment swallows rest
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q): expected error", sql)
		}
	}
}
