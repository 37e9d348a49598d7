package main

import (
	"fmt"
	"math/rand"

	"archis"
)

// The query set. Names are fixed. The SQL text is the paper's
// hand-tuned form (Table 3 as internal/bench/queries.go renders it,
// including the Section 6.3 segno restriction, which the adapter
// appends because it depends on the store's segment directory); the
// text is copied here, not imported: that package is slated for
// deletion.

type opKind int

const (
	q1  opKind = iota // snapshot of one object
	q3                // history of one object
	b1                // one object AsOfValidTime(d) x AsOfTransactionTime(lsn)
	q2                // average salary on a day
	q4                // count of all changes
	q5                // slicing with a value predicate
	b2                // average salary AsOfValidTime(d)
	q6                // temporal join as the maxraise aggregate
	q6j               // temporal join as a self hash join over the last ~2 years
	x1                // XQuery form of q1 (must take PathSQL)
	x3                // XQuery form of q3 (must take PathSQL)
	xf                // XQuery the translator rejects (must take PathXML)
	numKinds
)

var kindNames = [numKinds]string{"q1", "q3", "b1", "q2", "q4", "q5", "b2", "q6", "q6j", "x1", "x3", "xf"}

func (k opKind) String() string { return kindNames[k] }

// Classes of the end-to-end latency metrics.
type opClass int

const (
	classPoint opClass = iota
	classScan
	classJoin
	classXQuery
)

func (k opKind) class() opClass {
	switch k {
	case q1, q3, b1:
		return classPoint
	case q2, q4, q5, b2:
		return classScan
	case q6, q6j:
		return classJoin
	}
	return classXQuery
}

func (k opKind) isXQuery() bool { return k == x1 || k == x3 || k == xf }

// op is one read of a client's script. d1/d2 are the query's dates;
// segLo/segHi, when set, are the period the adapter turns into a segno
// restriction; validAt and asOf are the bitemporal scope of b1/b2 (the
// LSN itself is chosen when the op runs: the newest acked write).
type op struct {
	kind         opKind
	id           int64
	d1, d2       archis.Date
	text         string
	segLo, segHi archis.Date
	validAt      archis.Date
	asOf         bool
}

// round is the fixed order of one round: every point op four times,
// every other op once, so each query collects comparable sample counts.
var round = []opKind{
	q1, q3, b1, q2, x1,
	q1, q3, b1, q4, x3,
	q1, q3, b1, q5, xf, q6,
	q1, q3, b1, b2, q6j,
}

// script draws a client's read ops from its own seeded stream: object
// ids uniform over the employees hired during the loaded history, days
// uniform over the quiet days of the history span. Days on which the
// history changed are left out: at day granularity the Section 6.3
// segno restriction is not sound on the day a segment was archived
// (versions written later that day sit in the next segment, and both
// the hand-tuned SQL and the translator then read stale ones), so a
// snapshot on such a day has no single right answer to check against.
type script struct {
	rng      *rand.Rand
	kinds    []opKind // the round this script cycles through
	ids      int64    // employees ever hired by the end of the load
	start    archis.Date
	span     int // days of loaded history
	busy     map[archis.Date]bool
	position int
}

func newScript(seed int64, client int, m *model) *script {
	return &script{
		rng:   rand.New(rand.NewSource(seed*7919 + int64(client) + 1)),
		kinds: round,
		ids:   m.loadIDs,
		start: m.start,
		span:  m.start.DaysBetween(m.loadEnd),
		busy:  m.busyDays,
	}
}

// day draws a quiet day among the n days from day `from` of the
// history; the day `also` days later is quiet too.
func (s *script) day(from, n, also int) archis.Date {
	for {
		d := s.start.AddDays(from + s.rng.Intn(n))
		if !s.busy[d] && !s.busy[d.AddDays(also)] {
			return d
		}
	}
}

// next renders the next op of the script.
func (s *script) next() op {
	k := s.kinds[s.position%len(s.kinds)]
	s.position++
	o := op{kind: k}
	switch k {
	case q1:
		o.id, o.d1 = firstEmployeeID+s.rng.Int63n(s.ids), s.day(0, s.span, 0)
		o.segLo, o.segHi = o.d1, o.d1
		o.text = fmt.Sprintf(`select S.salary from employee_salary S where S.id = %d and S.tstart <= DATE '%s' and S.tend >= DATE '%s'`, o.id, o.d1, o.d1)
	case q2:
		o.d1 = s.day(0, s.span, 0)
		o.segLo, o.segHi = o.d1, o.d1
		o.text = fmt.Sprintf(`select avg(S.salary) from employee_salary S where S.tstart <= DATE '%s' and S.tend >= DATE '%s'`, o.d1, o.d1)
	case q3:
		o.id = firstEmployeeID + s.rng.Int63n(s.ids)
		o.text = fmt.Sprintf(`select S.salary, S.tstart, S.tend from employee_salary S where S.id = %d order by S.tstart`, o.id)
	case q4:
		o.text = `select count(*) from employee_salary S`
	case q5:
		o.d1 = s.day(0, s.span-365, 365) // the window ends inside the loaded history
		o.d2 = o.d1.AddDays(365)
		o.segLo, o.segHi = o.d1, o.d2
		o.text = fmt.Sprintf(`select count_distinct(S.id) from employee_salary S where S.salary > 60000 and toverlaps(S.tstart, S.tend, DATE '%s', DATE '%s')`, o.d1, o.d2)
	case q6:
		// The join window opens within a year of the two-thirds point of
		// the history (the paper's JoinStart), so the rows it covers, and
		// with them the cost of the op, vary little from draw to draw.
		o.d1 = s.day(s.span*2/3, 365, 0)
		o.segLo, o.segHi = o.d1, archis.Forever
		o.text = fmt.Sprintf(`select maxraise(S.id, S.salary, S.tstart, 730) from employee_salary S where S.tstart >= DATE '%s'`, o.d1)
	case q6j:
		o.d1 = s.day(s.span-730, 365, 0)
		o.text = fmt.Sprintf(`select max(S2.salary - S1.salary) from employee_salary S1, employee_salary S2 where S1.id = S2.id and S1.tstart >= DATE '%s' and S2.tstart >= S1.tstart and S2.tstart <= S1.tstart + 730`, o.d1)
	case b1:
		o.id, o.d1 = firstEmployeeID+s.rng.Int63n(s.ids), s.day(0, s.span, 0)
		o.validAt, o.asOf = o.d1, true
		o.text = fmt.Sprintf(`select S.salary from employee_salary S where S.id = %d`, o.id)
	case b2:
		o.d1 = s.day(0, s.span, 0)
		o.validAt = o.d1
		o.text = `select avg(S.salary) from employee_salary S`
	case x1:
		o.id, o.d1 = firstEmployeeID+s.rng.Int63n(s.ids), s.day(0, s.span, 0)
		o.text = fmt.Sprintf(`for $s in doc("employees.xml")/employees/employee[id=%d]/salary[tstart(.) <= xs:date("%s") and tend(.) >= xs:date("%s")] return string($s)`, o.id, o.d1, o.d1)
	case x3:
		o.id = firstEmployeeID + s.rng.Int63n(s.ids)
		o.text = fmt.Sprintf(`for $s in doc("employees.xml")/employees/employee[id=%d]/salary return $s`, o.id)
	case xf:
		o.d1 = s.day(0, s.span, 0)
		o.text = fmt.Sprintf(`count(doc("depts.xml")/depts/dept[some $m in mgrno satisfies tstart($m) >= xs:date("%s")])`, o.d1)
	}
	return o
}
