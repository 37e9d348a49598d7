package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"archis"
)

// The generator makes every input from the seed: the employee history
// that setup loads (the shape of the TimeCenter-like data set of the
// paper's Section 7: hires, raises, promotions, transfers, turnover
// over 17 years), the stream of single-row writes the measured phase
// issues, and each client's stream of read ops. While it generates it
// maintains the reference model — every salary version that should
// exist, stamped with the write index that created and closed it — so
// the expected answer of any query at any point of the write stream is
// computable without asking the system under test.

// scale sizes the generated history and the fixed parts of a run.
type scale struct {
	employees    int // steady-state population
	years        int // simulated history
	writesPerDay int // the write stream moves the clock one day every this many writes
	burstWrites  int // lifecycle phase: writes under which twenty checkpoints run
	tailWrites   int // writes after the last checkpoint: the log tail recovery replays and a fresh follower pulls
	reps         int // set-ups, recoveries and catch-ups per run; the median is reported
	probeDiv     int // probe iteration counts and sample sizes are divided by this
	verifyDraws  int // parameter draws per query checked against the model after setup
	faultWrites  int // length of the crash-injection pass
}

// One size for every workload: the paper's S=1 data set (400 employees
// over 17 years, about 7.6 k captured DML). It loads in about two
// seconds, so three set-ups plus the measured phase fit the driver's
// per-run budget. toyScale is the smoke test's.
var (
	fullScale = scale{employees: 400, years: 17, writesPerDay: 200, burstWrites: 1050, tailWrites: 300, reps: 7, probeDiv: 1, verifyDraws: 20, faultWrites: 2000}
	toyScale  = scale{employees: 30, years: 3, writesPerDay: 10, burstWrites: 42, tailWrites: 20, reps: 2, probeDiv: 50, verifyDraws: 3, faultWrites: 100}
)

const (
	genDepartments  = 9
	genUpdateFrac   = 0.08  // employees changed per month
	genTurnoverFrac = 0.004 // employees replaced per month
	firstEmployeeID = 100001
)

var titles = []string{"Engineer", "Sr Engineer", "TechLeader", "Manager", "Architect", "Principal"}

// stmt is one DML statement of the load or write script.
type stmt struct {
	day   archis.Date // clock the statement runs at
	sql   string
	valid *archis.Interval // asserted valid interval; nil records the default [day, Forever]
	index int              // write index (0 for load statements)
}

// version is one salary version of the reference model. born and
// closed are write indexes: the version exists in state i when
// born <= i, and its transaction interval is still open in state i
// unless 0 <= closed <= i. Load-time versions have born 0.
type version struct {
	id, salary   int64
	tstart, tend archis.Date
	vstart, vend archis.Date
	born, closed int
}

type employee struct {
	id      int64
	salary  int64
	title   int
	dept    int
	cur     *version
	lastDay archis.Date // day of the last change: one change per employee per day
}

// model is the reference history plus the seeded write stream. mu
// orders the single writer's appends against checks on other clients.
type model struct {
	mu sync.RWMutex

	scale
	rng      *rand.Rand
	start    archis.Date // first day of the history
	day      archis.Date // current clock
	loadEnd  archis.Date // last day of the loaded history
	nextID   int64
	loadIDs  int64 // employees ever hired by the end of the load
	live     []*employee
	versions []*version           // creation order
	byID     map[int64][]*version // per employee, creation order
	mgrDays  [][]archis.Date      // per department: days its manager changed (first = creation)
	busyDays map[archis.Date]bool // days of the loaded history on which a statement ran

	writes    int          // index of the last generated write
	issued    atomic.Int64 // the same, readable without mu
	userBytes int64        // encoded bytes of the row images the statements carry
	loadOps   int          // DML statements in the load script
	validTime bool         // one write in four asserts a valid interval
}

func newModel(seed int64, sc scale, validTime bool) *model {
	return &model{
		scale:     sc,
		rng:       rand.New(rand.NewSource(seed)),
		start:     archis.MustDate("1985-01-01"),
		nextID:    firstEmployeeID,
		byID:      map[int64][]*version{},
		validTime: validTime,
	}
}

func (m *model) addVersion(e *employee, valid *archis.Interval, index int) {
	v := &version{id: e.id, salary: e.salary, tstart: m.day, tend: archis.Forever,
		vstart: m.day, vend: archis.Forever, born: index, closed: -1}
	if valid != nil {
		v.vstart, v.vend = valid.Start, valid.End
	}
	e.cur = v
	m.versions = append(m.versions, v)
	m.byID[e.id] = append(m.byID[e.id], v)
}

func (m *model) closeVersion(e *employee, index int) {
	e.cur.tend = m.day.AddDays(-1)
	e.cur.closed = index
}

func (m *model) hire(valid *archis.Interval, index int) stmt {
	e := &employee{id: m.nextID, salary: 38000 + int64(m.rng.Intn(30000)), dept: m.rng.Intn(genDepartments), lastDay: m.day}
	m.nextID++
	m.live = append(m.live, e)
	m.addVersion(e, valid, index)
	name := "Emp" + strconv.FormatInt(e.id, 10)
	dept := fmt.Sprintf("d%02d", e.dept+1)
	m.userBytes += int64(8 + len(name) + 8 + len(titles[0]) + len(dept))
	return stmt{day: m.day, valid: valid, index: index,
		sql: fmt.Sprintf(`insert into employee values (%d, '%s', %d, '%s', '%s')`, e.id, name, e.salary, titles[0], dept)}
}

// pick returns the position of a live employee not yet changed today.
func (m *model) pick() int {
	for {
		i := m.rng.Intn(len(m.live))
		if m.live[i].lastDay != m.day {
			return i
		}
	}
}

func (m *model) raise(e *employee, amount int64, valid *archis.Interval, index int) stmt {
	e.salary += amount
	e.lastDay = m.day
	m.closeVersion(e, index)
	m.addVersion(e, valid, index)
	m.userBytes += 16
	return stmt{day: m.day, valid: valid, index: index,
		sql: fmt.Sprintf(`update employee set salary = %d where id = %d`, e.salary, e.id)}
}

func (m *model) terminate(i, index int) stmt {
	e := m.live[i]
	m.closeVersion(e, index)
	m.live[i] = m.live[len(m.live)-1]
	m.live = m.live[:len(m.live)-1]
	m.userBytes += 8
	return stmt{day: m.day, index: index, sql: fmt.Sprintf(`delete from employee where id = %d`, e.id)}
}

// history generates the load script: the statements that build 17
// years of history, in clock order.
func (m *model) history() []stmt {
	var out []stmt
	m.day = m.start
	m.mgrDays = make([][]archis.Date, genDepartments)
	for d := 0; d < genDepartments; d++ {
		name := fmt.Sprintf("Dept%02d", d+1)
		out = append(out, stmt{day: m.day, sql: fmt.Sprintf(`insert into dept values ('d%02d', '%s', %d)`, d+1, name, 9000+d)})
		m.mgrDays[d] = []archis.Date{m.day}
		m.userBytes += int64(3 + len(name) + 8)
	}
	for i := 0; i < m.employees; i++ {
		out = append(out, m.hire(nil, 0))
	}
	var updAcc, churnAcc float64
	m.busyDays = map[archis.Date]bool{m.day: true}
	for month := 1; month <= m.years*12; month++ {
		m.day = m.start.AddDays(month*30 + m.rng.Intn(3))
		m.busyDays[m.day] = true
		updAcc += float64(len(m.live)) * genUpdateFrac
		updates := int(updAcc)
		updAcc -= float64(updates)
		for u := 0; u < updates; u++ {
			e := m.live[m.pick()]
			switch m.rng.Intn(10) {
			case 0, 1: // promotion: title and raise in one statement
				if e.title < len(titles)-1 {
					e.title++
				}
				s := m.raise(e, int64(2000+m.rng.Intn(6000)), nil, 0)
				s.sql = fmt.Sprintf(`update employee set title = '%s', salary = %d where id = %d`, titles[e.title], e.salary, e.id)
				m.userBytes += int64(len(titles[e.title]))
				out = append(out, s)
			case 2: // transfer: no new salary version
				e.dept = m.rng.Intn(genDepartments)
				e.lastDay = m.day
				m.userBytes += 11
				out = append(out, stmt{day: m.day, sql: fmt.Sprintf(`update employee set deptno = 'd%02d' where id = %d`, e.dept+1, e.id)})
			default:
				out = append(out, m.raise(e, int64(500+m.rng.Intn(4000)), nil, 0))
			}
		}
		churnAcc += float64(len(m.live)) * genTurnoverFrac
		churn := int(churnAcc)
		churnAcc -= float64(churn)
		for c := 0; c < churn; c++ {
			out = append(out, m.terminate(m.pick(), 0), m.hire(nil, 0))
		}
		if month%24 == 0 {
			d := m.rng.Intn(genDepartments)
			out = append(out, stmt{day: m.day, sql: fmt.Sprintf(`update dept set mgrno = %d where deptno = 'd%02d'`, 9100+month+d, d+1)})
			m.mgrDays[d] = append(m.mgrDays[d], m.day)
			m.userBytes += 11
		}
	}
	m.loadEnd = m.day
	m.loadIDs = m.nextID - firstEmployeeID
	m.loadOps = len(out)
	return out
}

// nextWrite generates the next statement of the write stream and
// applies it to the model: eight raises, one hire, one termination in
// ten; the clock moves one day every writesPerDay writes; one write in
// four (never a delete) asserts a valid interval when the workload
// can carry one.
func (m *model) nextWrite() stmt {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writes++
	index := m.writes
	m.issued.Store(int64(index))
	if index%m.writesPerDay == 1 {
		m.day = m.day.AddDays(1)
	}
	var valid *archis.Interval
	if m.validTime && index%4 == 0 {
		// Half retroactive and open, half a closed year in the past.
		lo := m.day.AddDays(-30 - m.rng.Intn(700))
		iv := archis.Interval{Start: lo, End: archis.Forever}
		if m.rng.Intn(2) == 0 {
			iv.End = lo.AddDays(365)
		}
		valid = &iv
	}
	switch k := index % 10; {
	case k == 3:
		return m.hire(valid, index)
	case k == 7:
		return m.terminate(m.pick(), index)
	}
	return m.raise(m.live[m.pick()], int64(100+m.rng.Intn(2000)), valid, index)
}

// tendAt is the version's transaction end in state i.
func (v *version) tendAt(i int) archis.Date {
	if v.closed >= 0 && v.closed <= i {
		return v.tend
	}
	return archis.Forever
}

// answer computes the expected canonical answer of a read op in state
// i (after i writes). Callers hold mu for reading when a writer runs.
func (m *model) answer(o op, i int) string {
	switch o.kind {
	case q1, x1:
		var rows []string
		for _, v := range m.byID[o.id] {
			if v.born <= i && v.tstart <= o.d1 && v.tendAt(i) >= o.d1 {
				rows = append(rows, strconv.FormatInt(v.salary, 10))
			}
		}
		sort.Strings(rows)
		return strings.Join(rows, ";")
	case q3, x3:
		// x3's items atomize to the salary alone, in no promised order.
		var rows []string
		for _, v := range m.byID[o.id] {
			if v.born > i {
				continue
			}
			if o.kind == q3 {
				rows = append(rows, fmt.Sprintf("%d|%s|%s", v.salary, v.tstart, v.tendAt(i)))
			} else {
				rows = append(rows, strconv.FormatInt(v.salary, 10))
			}
		}
		if o.kind == x3 {
			sort.Strings(rows)
		}
		return strings.Join(rows, ";")
	case b1:
		var rows []string
		for _, v := range m.byID[o.id] {
			if v.born <= i && v.vstart <= o.d1 && v.vend >= o.d1 {
				rows = append(rows, strconv.FormatInt(v.salary, 10))
			}
		}
		sort.Strings(rows)
		return strings.Join(rows, ";")
	case q2, b2:
		var sum, n int64
		for _, v := range m.versions {
			if v.born > i {
				break
			}
			if o.kind == q2 && v.tstart <= o.d1 && v.tendAt(i) >= o.d1 ||
				o.kind == b2 && v.vstart <= o.d1 && v.vend >= o.d1 {
				sum += v.salary
				n++
			}
		}
		if n == 0 {
			return ""
		}
		return strconv.FormatFloat(float64(sum)/float64(n), 'g', -1, 64)
	case q4:
		n := sort.Search(len(m.versions), func(k int) bool { return m.versions[k].born > i })
		return strconv.Itoa(n)
	case q5:
		ids := map[int64]bool{}
		for _, v := range m.versions {
			if v.born > i {
				break
			}
			if v.salary > 60000 && v.tstart <= o.d2 && v.tendAt(i) >= o.d1 {
				ids[v.id] = true
			}
		}
		return strconv.Itoa(len(ids))
	case q6, q6j:
		best, any := int64(0), false
		for _, vs := range m.byID {
			for a, v1 := range vs {
				if v1.born > i || v1.tstart < o.d1 {
					continue
				}
				any = true
				for _, v2 := range vs[a+1:] {
					if v2.born <= i && v2.tstart <= v1.tstart.AddDays(730) && v2.salary-v1.salary > best {
						best = v2.salary - v1.salary
					}
				}
			}
		}
		if !any {
			return ""
		}
		return strconv.FormatInt(best, 10)
	case xf:
		n := 0
		for _, days := range m.mgrDays {
			if days[len(days)-1] >= o.d1 {
				n++
			}
		}
		return strconv.Itoa(n)
	}
	return "?"
}

// matches reports whether got is the expected answer of o in some
// state of [lo, hi] — the states a read that overlapped writes lo+1..hi
// may have seen.
func (m *model) matches(o op, got string, lo, hi int) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := lo; i <= hi; i++ {
		if sameAnswer(m.answer(o, i), got) {
			return true
		}
	}
	return false
}

// sameAnswer compares canonical answers; averages are compared as
// numbers because the engines may sum in different orders.
func sameAnswer(want, got string) bool {
	if want == got {
		return true
	}
	w, err1 := strconv.ParseFloat(want, 64)
	g, err2 := strconv.ParseFloat(got, 64)
	if err1 != nil || err2 != nil {
		return false
	}
	d := w - g
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+w)
}
