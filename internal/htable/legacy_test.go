package htable

import (
	"context"
	"strings"
	"testing"

	"archis/internal/relstore"
	"archis/internal/sqlengine"
	"archis/internal/temporal"
)

// buildLegacyArchive materializes a pre-bitemporal archive by hand —
// current table, key table and 4-column attribute-history tables with
// Bob's history through the 1995-06-01 raise — and attaches it. This
// is exactly the shape a database saved before the valid-time columns
// existed reopens with.
func buildLegacyArchive(t *testing.T) (*Archive, TableSpec) {
	t.Helper()
	db := relstore.NewDatabase()
	en := sqlengine.New(db)
	spec := employeeSpec()

	cur, err := db.CreateTable(relstore.NewSchema(spec.Name, spec.Columns...))
	if err != nil {
		t.Fatal(err)
	}
	keyT, err := db.CreateTable(spec.KeyTableSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range spec.AttrColumns() {
		if _, err := db.CreateTable(relstore.NewSchema(spec.AttrTableName(c.Name),
			relstore.Col("id", relstore.TypeInt),
			c,
			relstore.Col("tstart", relstore.TypeDate),
			relstore.Col("tend", relstore.TypeDate))); err != nil {
			t.Fatal(err)
		}
	}

	d := temporal.MustParseDate
	if _, err := cur.Insert(relstore.Row{
		relstore.Int(1001), relstore.String_("Bob"), relstore.Int(70000),
		relstore.String_("Engineer"), relstore.String_("d01")}); err != nil {
		t.Fatal(err)
	}
	if _, err := keyT.Insert(relstore.Row{
		relstore.Int(1001), relstore.DateV(d("1995-01-01")), relstore.DateV(temporal.Forever)}); err != nil {
		t.Fatal(err)
	}
	hist := map[string][]relstore.Row{
		"employee_salary": {
			{relstore.Int(1001), relstore.Int(60000), relstore.DateV(d("1995-01-01")), relstore.DateV(d("1995-05-31"))},
			{relstore.Int(1001), relstore.Int(70000), relstore.DateV(d("1995-06-01")), relstore.DateV(temporal.Forever)},
		},
		"employee_name": {
			{relstore.Int(1001), relstore.String_("Bob"), relstore.DateV(d("1995-01-01")), relstore.DateV(temporal.Forever)},
		},
		"employee_title": {
			{relstore.Int(1001), relstore.String_("Engineer"), relstore.DateV(d("1995-01-01")), relstore.DateV(temporal.Forever)},
		},
		"employee_deptno": {
			{relstore.Int(1001), relstore.String_("d01"), relstore.DateV(d("1995-01-01")), relstore.DateV(temporal.Forever)},
		},
	}
	for name, rows := range hist {
		tab, ok := db.Table(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		for _, r := range rows {
			if _, err := tab.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}

	a, err := New(en, CaptureTrigger)
	if err != nil {
		t.Fatal(err)
	}
	a.SetClock(d("1995-06-01"))
	err = a.Attach(spec, func(db *relstore.Database, schema relstore.Schema) (AttrStore, error) {
		tab, _ := db.Table(schema.Name)
		return OpenPlainStore(tab)
	})
	if err != nil {
		t.Fatalf("attach legacy archive: %v", err)
	}
	return a, spec
}

// TestLegacyArchiveCompat: an archive written before the valid-time
// columns existed must open and answer transaction-time queries
// unchanged, synthesize the default valid interval on bitemporal
// surfaces, accept default-valid writes in its 4-column layout, and
// reject explicit valid-time assertions rather than silently dropping
// them.
func TestLegacyArchiveCompat(t *testing.T) {
	a, _ := buildLegacyArchive(t)
	en := a.Engine

	// Transaction-time history identical to the pre-bitemporal shape:
	// four columns, no synthesized storage.
	got := historyRows(t, a, "employee_salary")
	want := []string{
		"1001|60000|1995-01-01|1995-05-31",
		"1001|70000|1995-06-01|9999-12-31",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("legacy salary history:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// Transaction-time snapshot reconstruction.
	rows, err := a.Snapshot("employee", temporal.MustParseDate("1995-03-01"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][2].I != 60000 {
		t.Errorf("Snapshot(1995-03-01) = %v, want Bob at 60000", rows)
	}

	// ScanHistory synthesizes the default valid interval.
	st, _ := a.AttrStore("employee", "salary")
	err = st.ScanHistory(func(_ int64, _ relstore.Value, start, _ temporal.Date, valid temporal.Interval) bool {
		if valid != DefaultValid(start) {
			t.Errorf("legacy row valid = %s, want default %s", valid, DefaultValid(start))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}

	// The bitemporal snapshot agrees with the transaction-time one on
	// all-default data.
	vrows, err := a.SnapshotValid("employee", temporal.MustParseDate("1995-03-01"))
	if err != nil {
		t.Fatal(err)
	}
	if len(vrows) != 1 || vrows[0][2].I != 60000 {
		t.Errorf("SnapshotValid(1995-03-01) = %v, want Bob at 60000", vrows)
	}

	// A valid-time scoped SELECT gets the legacy conjunct tstart<=d:
	// versions asserted after d are not yet believed.
	ctx := sqlengine.WithValidAsOf(context.Background(), temporal.MustParseDate("1995-03-01"))
	res, err := en.Run(ctx, "select salary from employee_salary where id = 1001 order by tstart", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 60000 {
		t.Errorf("valid-scoped legacy read = %v, want only the 60000 version", res.Rows)
	}

	// Default-valid writes keep flowing through capture in the legacy
	// 4-column layout.
	a.SetClock(temporal.MustParseDate("1995-10-01"))
	en.MustExec(`update employee set salary = 80000 where id = 1001`)
	got = historyRows(t, a, "employee_salary")
	want = []string{
		"1001|60000|1995-01-01|1995-05-31",
		"1001|70000|1995-06-01|1995-09-30",
		"1001|80000|1995-10-01|9999-12-31",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("post-write legacy history:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// An explicit valid interval cannot be represented: the write must
	// fail loudly, not archive with a silently dropped assertion.
	iv, err := temporal.NewInterval(temporal.MustParseDate("1995-01-01"), temporal.MustParseDate("1995-12-31"))
	if err != nil {
		t.Fatal(err)
	}
	a.SetPendingValid(&iv)
	_, err = en.Exec(`update employee set salary = 90000 where id = 1001`)
	a.SetPendingValid(nil)
	if err == nil || !strings.Contains(err.Error(), "legacy") {
		t.Errorf("explicit valid write on legacy table: err = %v, want legacy rejection", err)
	}
}
