package cluster

import "time"

// TaskSpan is one completed sub-span recorded while a task body ran: a fetch,
// kernel, cache lookup or result send. It is placed relative to the body, on
// the recording process's monotonic clock: Offset from the body's start, Dur
// long. Relative times need no clock agreement between processes, so a
// worker ships its spans as they are and the receiver places them.
type TaskSpan struct {
	Name   string
	Cat    string
	Offset time.Duration
	Dur    time.Duration
}

// TaskTrace collects the sub-spans of one task execution. Like the Task that
// owns it, it is single-owner state: the task body records into it serially
// and the backend drains it after the body returns. A nil *TaskTrace absorbs
// every call, so untraced runs pay only a pointer check.
type TaskTrace struct {
	start time.Time
	spans []TaskSpan
}

// NewTaskTrace returns a collector for a task body that started at start;
// every span's Offset is measured from it.
func NewTaskTrace(start time.Time) *TaskTrace { return &TaskTrace{start: start} }

// noopEnd is the closer Begin hands out when tracing is off.
func noopEnd() {}

// Begin opens a sub-span and returns the func that closes it. Nil-safe.
func (tt *TaskTrace) Begin(name, cat string) func() {
	if tt == nil {
		return noopEnd
	}
	from := time.Since(tt.start)
	return func() {
		tt.spans = append(tt.spans, TaskSpan{Name: name, Cat: cat, Offset: from, Dur: time.Since(tt.start) - from})
	}
}

// Spans returns the recorded sub-spans in completion order.
func (tt *TaskTrace) Spans() []TaskSpan {
	if tt == nil {
		return nil
	}
	return tt.spans
}

// SetTrace attaches a span collector to the task. Backends call it before
// running the task body when tracing is enabled; nil (the default) disables
// sub-span recording.
func (t *Task) SetTrace(tt *TaskTrace) { t.trace = tt }

// Trace returns the task's span collector; nil when tracing is off.
func (t *Task) Trace() *TaskTrace { return t.trace }
