package bench

import (
	"fmt"

	"archis/internal/core"
	"archis/internal/dataset"
)

// Columnar-vs-row-blob comparison (TestColumnarGatePair). Two
// identically-seeded compressed environments are built, one writing
// frozen blocks in the columnar encoding (and executing vectorized),
// one in the legacy row-in-blob encoding; every attribute history is
// forced frozen and compressed so cold queries actually read BlockZIP
// blocks. The scan-heavy suite queries then run cold on both, and the
// two encodings must agree on every answer.

// ColumnarRecord is one cell of the comparison: a query run cold on
// one encoding of the same dataset.
type ColumnarRecord struct {
	Query    string
	Columnar bool
	Access   string // planner access path ("colscan" when vectorized)
	Rows     int
	Value    string
	// ColBatches counts the vectorized batches the cold runs consumed
	// (0 on the row-blob side — evidence the fast path actually ran).
	ColBatches int64
}

// BuildColumnarPair builds the two compressed environments of the
// gate — identical seed and configuration, differing only in the
// frozen-block encoding — with every attribute history frozen and
// compressed.
func BuildColumnarPair(cfg dataset.Config, opts Options) (on, off *Env, err error) {
	build := func(mode core.ColumnarMode) (*Env, error) {
		o := opts
		o.Layout = core.LayoutCompressed
		o.Compress = false // compress after the forced freeze below
		o.Columnar = mode
		e, err := Build(cfg, o)
		if err != nil {
			return nil, err
		}
		if err := e.FreezeAll(); err != nil {
			return nil, err
		}
		return e, nil
	}
	if on, err = build(core.ColumnarOn); err != nil {
		return nil, nil, err
	}
	if off, err = build(core.ColumnarOff); err != nil {
		return nil, nil, err
	}
	return on, off, nil
}

// FreezeAll forces every attribute history into frozen segments and
// compresses them, so cold reads on the compressed layout hit BlockZIP
// blocks rather than the live segment.
func (e *Env) FreezeAll() error {
	for _, table := range e.Sys.Archive.Tables() {
		ts, ok := e.Sys.Archive.Spec(table)
		if !ok {
			continue
		}
		for _, c := range ts.AttrColumns() {
			if st, stOK := e.Sys.SegmentStore(ts.AttrTableName(c.Name)); stOK {
				if err := st.ArchiveNow(); err != nil {
					return err
				}
			}
		}
	}
	return e.Sys.CompressFrozen()
}

// ColumnarCompare runs each query cold twice on both encodings — the
// second run checks the answer does not drift — and verifies the two
// encodings agree. The caller asserts the access paths and batch counts.
func ColumnarCompare(on, off *Env, queries []QueryID) ([]ColumnarRecord, error) {
	var out []ColumnarRecord
	for _, q := range queries {
		var recs [2]ColumnarRecord
		for i, env := range []*Env{on, off} {
			rec := ColumnarRecord{Query: fmt.Sprintf("Q%d", q), Columnar: env == on}
			access, err := AccessPath(env.Sys.Engine, env.SQL(q))
			if err != nil {
				return nil, err
			}
			rec.Access = access
			for run := 0; run < 2; run++ {
				env.Cold()
				prev := env.Sys.DB.Stats()
				res, err := env.Run(q)
				if err != nil {
					return nil, err
				}
				rec.ColBatches += env.Sys.DB.Stats().Sub(prev).ColBatches
				if run == 0 {
					rec.Rows, rec.Value = res.Rows, res.Value
				} else if res.Rows != rec.Rows || res.Value != rec.Value {
					return nil, fmt.Errorf("columnar gate: Q%d answer drifted across runs (columnar=%v)", q, rec.Columnar)
				}
			}
			recs[i] = rec
		}
		if recs[0].Value != recs[1].Value || recs[0].Rows != recs[1].Rows {
			return nil, fmt.Errorf("columnar gate: Q%d answers differ between encodings (%q/%d vs %q/%d)",
				q, recs[0].Value, recs[0].Rows, recs[1].Value, recs[1].Rows)
		}
		out = append(out, recs[:]...)
	}
	return out, nil
}
