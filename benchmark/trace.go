package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// The benchmark's own span recorder. The traced run wraps a span
// around each call into a layer's public functions; spans stay in
// memory and are written out when the run ends. Nothing inside the
// program is instrumented: every layer is measured from outside.

// span is one recorded interval. Parent is 0 for the root span of an
// op; all spans of one op share its op id. Times are nanoseconds since
// the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id.
func (r *recorder) start(name string, op, parent int) int {
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(r.t0))})
	r.mu.Unlock()
	return id
}

func (r *recorder) finish(id int) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// selfTime is one span name's total and median self time: a span's
// duration minus the part its children cover.
type selfTime struct {
	Count    int     `json:"count"`
	TotalUS  float64 `json:"total_us"`
	MedianUS float64 `json:"median_us"`
}

// selfTimes computes self time per span name and verifies the tree:
// every span is closed, names its op, and no op's children outlast
// their root. It returns the first violation found.
func selfTimes(spans []span) (map[string]selfTime, error) {
	children := make([]int64, len(spans)+1)
	for _, s := range spans {
		if s.Name == "" || s.Op == 0 || s.End < s.Start || s.ID <= 0 || s.ID > len(spans) {
			return nil, fmt.Errorf("trace: malformed span %+v", s)
		}
		if s.Parent != 0 {
			p := spans[s.Parent-1]
			if p.Op != s.Op {
				return nil, fmt.Errorf("trace: span %d and its parent %d belong to different ops", s.ID, p.ID)
			}
			children[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string][]float64{}
	for _, s := range spans {
		self := s.End - s.Start - children[s.ID]
		if self < 0 {
			return nil, fmt.Errorf("trace: children of span %d (%s) cover %d ns of its %d ns", s.ID, s.Name, children[s.ID], s.End-s.Start)
		}
		byName[s.Name] = append(byName[s.Name], float64(self)/1e3)
	}
	out := map[string]selfTime{}
	for name, xs := range byName {
		total := 0.0
		for _, x := range xs {
			total += x
		}
		out[name] = selfTime{Count: len(xs), TotalUS: total, MedianUS: median(xs)}
	}
	return out, nil
}

// traceFileOps bounds the trace file: it holds every span of the first
// this-many ops, which keeps a committed trace small. The self times
// in its header cover all spans of the run.
const traceFileOps = 100

type traceFile struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Ops      int                 `json:"ops_recorded"`
	Self     map[string]selfTime `json:"self_time"`
	Spans    []span              `json:"spans"`
}

// writeTrace writes the trace file and reads it back, so a trace that
// does not re-parse into a well-formed tree fails the run.
func writeTrace(path, workload string, seed int64, r *recorder) error {
	self, err := selfTimes(r.spans)
	if err != nil {
		return err
	}
	tf := traceFile{Workload: workload, Seed: seed, Self: self}
	remap := map[int]int{0: 0} // ids renumbered so the written subset is self-contained
	for _, s := range r.spans {
		if s.Op > traceFileOps {
			continue
		}
		remap[s.ID] = len(tf.Spans) + 1
		s.ID, s.Parent = remap[s.ID], remap[s.Parent]
		tf.Spans = append(tf.Spans, s)
		if s.Op > tf.Ops {
			tf.Ops = s.Op
		}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	back, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var again traceFile
	if err := json.Unmarshal(back, &again); err != nil {
		return fmt.Errorf("trace: %s does not re-parse: %w", path, err)
	}
	if _, err := selfTimes(again.Spans); err != nil {
		return fmt.Errorf("trace: %s: %w", path, err)
	}
	return nil
}
