// Package bench builds the experiment environments of the paper's
// evaluation (Section 7): ArchIS instances in each configuration
// (plain, segment-clustered, BlockZIP-compressed; trigger- or
// log-captured) and the native-XML-database baseline holding the same
// history as H-documents, all loaded from the synthetic temporal
// employee workload. The Table 3 query suite (Q1–Q6) is implemented
// for both backends, and every run can be made cold (caches dropped)
// to follow the paper's methodology.
package bench

import (
	"fmt"
	"time"

	"archis/internal/core"
	"archis/internal/dataset"
	"archis/internal/htable"
	"archis/internal/temporal"
	"archis/internal/wal"
	"archis/internal/xmldb"
)

// Env is one loaded ArchIS configuration plus derived query
// parameters.
type Env struct {
	Sys *core.System
	Cfg dataset.Config
	Gen dataset.Stats

	// Query parameters, derived from the workload so every
	// configuration (and the XML baseline) asks identical questions.
	SingleID    int64
	SnapshotDay temporal.Date
	SliceLo     temporal.Date
	SliceHi     temporal.Date
	JoinStart   temporal.Date
}

// Options for building an environment.
type Options struct {
	Layout  core.Layout
	Capture htable.CaptureMode
	Umin    float64
	// MinSegmentRows for clustering; a workload-appropriate default is
	// chosen when zero.
	MinSegmentRows int
	Compress       bool // run CompressFrozen after loading
	WholeSegments  bool // ablation: whole-segment compression
	// Workers is the intra-query scan parallelism (0 = GOMAXPROCS,
	// 1 = serial); see core.Options.Workers.
	Workers int
	// Columnar toggles columnar frozen blocks + vectorized execution
	// (zero value = on); see core.Options.Columnar.
	Columnar core.ColumnarMode
	// WALDir enables the durable write-ahead op log for the built
	// system (core.Options.WALDir); the durability and crash-recovery
	// experiments use it.
	WALDir string
	// WALFS overrides the log's file layer (fault-injection tests).
	WALFS wal.FS
	// WALSync, WALBatchWindow and WALSegmentBytes are the log's commit
	// policy, group-commit window and segment roll threshold.
	WALSync         wal.SyncMode
	WALBatchWindow  time.Duration
	WALSegmentBytes int
}

// Build generates the workload into a fresh ArchIS instance.
func Build(cfg dataset.Config, opts Options) (*Env, error) {
	if opts.Umin == 0 {
		opts.Umin = 0.4
	}
	if opts.MinSegmentRows == 0 {
		// Roughly paper-shaped: segments a few times the live set.
		opts.MinSegmentRows = cfg.Employees * 2
	}
	sys, err := core.New(core.Options{
		Capture:                 opts.Capture,
		Layout:                  opts.Layout,
		Umin:                    opts.Umin,
		MinSegmentRows:          opts.MinSegmentRows,
		WholeSegmentCompression: opts.WholeSegments,
		Workers:                 opts.Workers,
		Columnar:                opts.Columnar,
		WALDir:                  opts.WALDir,
		WALFS:                   opts.WALFS,
		WALSync:                 opts.WALSync,
		WALBatchWindow:          opts.WALBatchWindow,
		WALSegmentBytes:         opts.WALSegmentBytes,
	})
	if err != nil {
		return nil, err
	}
	RegisterMaxRaise(sys.Engine)
	if err := sys.Register(dataset.EmployeeSpec()); err != nil {
		return nil, err
	}
	if err := sys.Register(dataset.DeptSpec()); err != nil {
		return nil, err
	}
	st, err := dataset.Generate(sys.Archive, cfg)
	if err != nil {
		return nil, err
	}
	// The generator writes through the archive directly, below the
	// system's statement paths — publish once so snapshot readers see
	// the loaded history.
	sys.Publish()
	if sys.Archive.Mode() == htable.CaptureLog {
		if err := sys.FlushLog(); err != nil {
			return nil, err
		}
	}
	if opts.Compress {
		if err := sys.CompressFrozen(); err != nil {
			return nil, err
		}
	}
	env := &Env{Sys: sys, Cfg: cfg, Gen: st}
	env.deriveParams()
	return env, nil
}

func (e *Env) deriveParams() {
	start := e.Cfg.Start
	if start == 0 {
		start = temporal.MustParseDate("1985-01-01")
	}
	span := e.Cfg.Years * 365
	e.SingleID = 100001 + int64(e.Cfg.Employees/3)
	e.SnapshotDay = start.AddDays(span / 2)
	e.SliceLo = start.AddDays(span / 2)
	e.SliceHi = start.AddDays(span/2 + 365)
	e.JoinStart = start.AddDays(span * 2 / 3)
}

// Cold drops every cache so the next query pays physical reads — the
// analogue of the paper's unmount/restart protocol.
func (e *Env) Cold() {
	e.Sys.DB.DropCaches()
}

// segRestrict renders the segment condition for an attribute table
// over [lo, hi] (Section 6.3), or "" when not clustered.
func (e *Env) segRestrict(alias, attrTable string, lo, hi temporal.Date) string {
	st, ok := e.Sys.SegmentStore(attrTable)
	if !ok {
		return ""
	}
	segs, err := st.SegmentsFor(lo, hi)
	if err != nil || len(segs) == 0 {
		return ""
	}
	min, max := segs[0], segs[0]
	for _, s := range segs[1:] {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if min == max {
		return fmt.Sprintf(" and %s.segno = %d", alias, min)
	}
	return fmt.Sprintf(" and %s.segno >= %d and %s.segno <= %d", alias, min, alias, max)
}

// XMLEnv is the native XML DBMS baseline loaded with the same history.
type XMLEnv struct {
	DB  *xmldb.DB
	Env *Env // parameter source (shared workload)
}

// BuildXMLBaseline publishes the H-documents of an existing
// environment into a document store (compressed, as Tamino compresses
// documents by default).
func BuildXMLBaseline(src *Env, compress bool) (*XMLEnv, error) {
	db := xmldb.New(xmldb.Options{Compress: compress})
	db.Now = src.Sys.Clock()
	for _, table := range []string{"employee", "dept"} {
		doc, err := src.Sys.PublishHDoc(table)
		if err != nil {
			return nil, err
		}
		spec, _ := src.Sys.Archive.Spec(table)
		if err := db.Store(spec.DocName(), doc); err != nil {
			return nil, err
		}
	}
	return &XMLEnv{DB: db, Env: src}, nil
}

// Cold drops the baseline's parsed-document cache.
func (x *XMLEnv) Cold() { x.DB.DropCaches() }
