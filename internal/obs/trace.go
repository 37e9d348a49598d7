// Package obs is the observability layer of ArchIS: per-query
// execution tracing (span trees with monotonic timings and row
// cardinalities) and a process-wide metrics registry (counters, gauges
// and fixed-bucket lock-free latency histograms) that every execution
// layer — sqlengine, xquery, translator, relstore, wal — reports into.
//
// The design constraint is that observability must cost nothing when
// it is off: every Span method is nil-safe, so instrumented code
// threads a possibly-nil *Span and pays exactly one pointer check per
// hook when tracing is disabled (the DESIGN.md §11 overhead budget).
// Histograms are single atomic-add on the hot path and nil-safe too.
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span (emitted SQL, table
// names, worker counts, storage-counter deltas, ...).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed node of a query trace. Spans form a tree; child
// spans are created with Child and closed with End. All methods are
// safe on a nil receiver (the disabled-tracing fast path) and safe for
// concurrent use: parallel workers may add rows to a shared span or
// open sibling children concurrently.
type Span struct {
	tracer *Tracer

	name    string
	start   time.Duration // offset from the tracer's epoch
	end     time.Duration // 0 until End (rendered as "unclosed")
	ended   bool
	rowsIn  atomic.Int64
	rowsOut atomic.Int64

	mu       sync.Mutex
	attrs    []Attr
	children []*Span
}

// Tracer owns one query's span tree. Create with NewTracer, pass the
// root span down the execution layers, then Finish to obtain the
// immutable QueryTrace.
type Tracer struct {
	epoch time.Time
	root  *Span
}

// NewTracer starts a trace whose root span has the given name.
func NewTracer(name string) *Tracer {
	t := &Tracer{epoch: time.Now()}
	t.root = &Span{tracer: t, name: name}
	return t
}

// Root returns the root span (nil on a nil tracer, preserving the
// disabled fast path for code that holds a *Tracer).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

func (t *Tracer) since() time.Duration { return time.Since(t.epoch) }

// Child opens a sub-span. Returns nil when s is nil, so disabled
// tracing costs one pointer check and no allocation.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tracer: s.tracer, name: name, start: s.tracer.since()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span, fixing its duration. Idempotent.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.end = s.tracer.since()
}

// SetAttr attaches a string annotation.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetInt attaches an integer annotation.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, fmt.Sprintf("%d", v))
}

// AddRows accumulates row cardinalities (atomic; parallel morsel
// workers feed the same span).
func (s *Span) AddRows(in, out int64) {
	if s == nil {
		return
	}
	if in != 0 {
		s.rowsIn.Add(in)
	}
	if out != 0 {
		s.rowsOut.Add(out)
	}
}

// TraceNode is one immutable node of a finished trace.
type TraceNode struct {
	Name     string       `json:"name"`
	StartNS  int64        `json:"start_ns"`
	DurNS    int64        `json:"dur_ns"`
	RowsIn   int64        `json:"rows_in,omitempty"`
	RowsOut  int64        `json:"rows_out,omitempty"`
	Attrs    []Attr       `json:"attrs,omitempty"`
	Children []*TraceNode `json:"children,omitempty"`
}

// QueryTrace is the finished, immutable trace of one query.
type QueryTrace struct {
	Query string     `json:"query,omitempty"`
	Root  *TraceNode `json:"root"`
}

// Finish closes the root span (if still open) and renders the
// immutable trace. Returns nil on a nil tracer.
func (t *Tracer) Finish(query string) *QueryTrace {
	if t == nil {
		return nil
	}
	t.root.End()
	return &QueryTrace{Query: query, Root: render(t.root)}
}

func render(s *Span) *TraceNode {
	s.mu.Lock()
	defer s.mu.Unlock()
	end := s.end
	if !s.ended {
		end = s.tracer.since()
	}
	n := &TraceNode{
		Name:    s.name,
		StartNS: s.start.Nanoseconds(),
		DurNS:   (end - s.start).Nanoseconds(),
		RowsIn:  s.rowsIn.Load(),
		RowsOut: s.rowsOut.Load(),
		Attrs:   append([]Attr(nil), s.attrs...),
	}
	for _, c := range s.children {
		n.Children = append(n.Children, render(c))
	}
	return n
}

// JSON renders the trace as indented JSON (checked structurally by
// internal/bench's TestTraceDifferential).
func (qt *QueryTrace) JSON() []byte {
	b, err := json.MarshalIndent(qt, "", "  ")
	if err != nil { // unreachable: the types are marshalable
		return []byte(fmt.Sprintf("{%q:%q}", "error", err.Error()))
	}
	return b
}

// Tree renders the trace as an indented text tree with per-node
// timings, cardinalities and attributes — the EXPLAIN ANALYZE and
// `archis -trace` output.
func (qt *QueryTrace) Tree() string {
	var b strings.Builder
	writeNode(&b, qt.Root, 0)
	return b.String()
}

func writeNode(b *strings.Builder, n *TraceNode, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Name)
	fmt.Fprintf(b, "  [%s]", FormatDuration(time.Duration(n.DurNS)))
	if n.RowsIn > 0 || n.RowsOut > 0 {
		fmt.Fprintf(b, " rows=%d", n.RowsOut)
		if n.RowsIn > 0 {
			fmt.Fprintf(b, " rows_in=%d", n.RowsIn)
		}
	}
	for _, a := range n.Attrs {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		writeNode(b, c, depth+1)
	}
}

// FormatDuration renders a duration rounded for humans; a fixed
// µs/ms/s ladder keeps trace output width stable.
func FormatDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	}
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// Find returns the first node with the given name in pre-order, or
// nil — test helper for asserting on specific plan stages.
func (qt *QueryTrace) Find(name string) *TraceNode {
	if qt == nil {
		return nil
	}
	return findNode(qt.Root, name)
}

func findNode(n *TraceNode, name string) *TraceNode {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if hit := findNode(c, name); hit != nil {
			return hit
		}
	}
	return nil
}

// Attr returns the value of the named attribute ("" when absent).
func (n *TraceNode) Attr(key string) string {
	if n == nil {
		return ""
	}
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// SortAttrs is used by tests that need deterministic attr order after
// concurrent SetAttr calls.
func (n *TraceNode) SortAttrs() {
	sort.Slice(n.Attrs, func(i, j int) bool { return n.Attrs[i].Key < n.Attrs[j].Key })
}
