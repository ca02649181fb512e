package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: name, start, end, the span that
// caused it, and the operation it belongs to. Spans are recorded by the
// harness around its calls; nothing inside the library knows about them.
type span struct {
	tr         *tracer
	id, parent int // parent is -1 for a root
	op         int // operation id shared by every span of one operation
	lane       int // row in the viewer: the caller, or a scheduler worker
	name       string
	start, end time.Duration // since the tracer started
}

// tracer keeps spans in memory until the run ends. A nil *tracer (tracing
// off) hands out nil spans, and every span method is a no-op on nil, so the
// untraced pass runs the same statements and pays one nil check per call.
type tracer struct {
	t0    time.Time
	lane0 int // added to the lane of every root span opened from now on
	mu    sync.Mutex
	ops   int
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) add(s *span) *span {
	tr.mu.Lock()
	s.id = len(tr.spans)
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
	return s
}

// newOp returns the identifier the spans of one operation share.
func (tr *tracer) newOp() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ops++
	return tr.ops
}

// root opens a span with no parent.
func (tr *tracer) root(name string, op, lane int) *span {
	if tr == nil {
		return nil
	}
	return tr.add(&span{tr: tr, parent: -1, op: op, lane: tr.lane0 + lane, name: name, start: time.Since(tr.t0)})
}

// child opens a span caused by s, starting now.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.tr.add(&span{tr: s.tr, parent: s.id, op: s.op, lane: s.lane, name: name, start: time.Since(s.tr.t0)})
}

// childAt records an already finished child, for spans reported by the
// library after the fact (the scheduler's per-task trace).
func (s *span) childAt(name string, lane int, start, end time.Duration) {
	if s == nil {
		return
	}
	s.tr.add(&span{tr: s.tr, parent: s.id, op: s.op, lane: lane, name: name, start: start, end: end})
}

// finish closes the span and returns its end time.
func (s *span) finish() time.Duration {
	if s == nil {
		return 0
	}
	s.end = time.Since(s.tr.t0)
	return s.end
}

func (s *span) dur() time.Duration {
	if s == nil {
		return 0
	}
	return s.end - s.start
}

// selfTimes returns, per span name, the summed self time: a span's duration
// minus the part of it that its child spans cover. Children may overlap
// (two workers run tasks at once), so the covered part is the union of the
// child intervals clipped to the parent.
func selfTimes(spans []*span) map[string]time.Duration {
	kids := make(map[int][]*span)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.name] += s.dur() - covered(s, kids[s.id])
	}
	return out
}

func covered(parent *span, kids []*span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total time.Duration
	at := parent.start
	for _, k := range kids {
		lo, hi := max(k.start, at), min(k.end, parent.end)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// writeChromeTrace writes the spans as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps), loadable in chrome://tracing
// and Perfetto. args carries the span, parent and operation ids.
func (tr *tracer) writeChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
		Args struct {
			ID     int `json:"id"`
			Parent int `json:"parent"`
			Op     int `json:"op"`
		} `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	_, _ = w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range tr.spans {
		if i > 0 {
			_ = w.WriteByte(',')
		}
		ev := event{Name: s.name, Ph: "X", TS: us(s.start), Dur: us(s.dur()), PID: 1, TID: s.lane}
		ev.Args.ID, ev.Args.Parent, ev.Args.Op = s.id, s.parent, s.op
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	_, _ = w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
