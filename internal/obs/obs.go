// Package obs is the observability layer shared by the whole stack: a
// low-overhead span tracer and an attribution registry that the kernel
// engine, the compiler, the serving layer and the training pipeline all
// report into. It exists so EXPLAIN ANALYZE (cmd/seastar-inspect) and the
// serving endpoints can say *which* execution unit, compile phase or
// pipeline stage the time went to, instead of only end-to-end totals.
//
// Tracing is off by default and zero-cost when off: Begin checks one
// atomic flag and returns a zero-value Span without touching the heap
// (verified by TestDisabledSpanAllocs and BenchmarkSpanDisabled), so the
// instrumentation can stay compiled into every hot path. Enabled-mode
// overhead is one clock read per span edge plus a mutex-guarded map
// update at End.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the global tracing switch. Hot paths call Enabled (or Begin,
// which checks it) before doing any attribution work.
var enabled atomic.Bool

// allocTracking additionally samples the runtime's allocation counter at
// span edges (see alloccount.go). It is meaningful only while tracing is
// enabled, and costs a runtime/metrics read per span edge — EXPLAIN
// ANALYZE turns it on for a dedicated pass, never during timing runs.
var allocTracking atomic.Bool

// Enable turns tracing on globally.
func Enable() { enabled.Store(true) }

// Disable turns tracing off globally. In-flight spans started while
// enabled still record on End.
func Disable() { enabled.Store(false) }

// Enabled reports whether tracing is on. Instrumentation sites with
// non-trivial argument construction should guard on it.
func Enabled() bool { return enabled.Load() }

// EnableAllocTracking makes subsequent spans record a per-entry "allocs"
// counter (heap objects allocated between Begin and End).
func EnableAllocTracking() { allocTracking.Store(true) }

// DisableAllocTracking stops allocation sampling.
func DisableAllocTracking() { allocTracking.Store(false) }

// Span is one in-flight timed region. It is a value type: starting a span
// never allocates, and a zero Span (returned when tracing is disabled)
// makes End a no-op.
type Span struct {
	reg     *Registry
	cat     string
	name    string
	startNs int64
	alloc0  uint64
}

// Begin starts a span on the default registry. When tracing is disabled
// it returns a zero Span at the cost of one atomic load.
func Begin(cat, name string) Span { return Default.Begin(cat, name) }

// Begin starts a span on r; see the package-level Begin.
func (r *Registry) Begin(cat, name string) Span {
	if !enabled.Load() {
		return Span{}
	}
	s := Span{reg: r, cat: cat, name: name, startNs: time.Now().UnixNano()}
	if allocTracking.Load() {
		s.alloc0 = allocCount()
	}
	return s
}

// End records the span into its registry; a zero Span does nothing.
func (s Span) End() {
	if s.reg == nil {
		return
	}
	endNs := time.Now().UnixNano()
	var allocs int64
	if allocTracking.Load() && s.alloc0 != 0 {
		allocs = int64(allocCount() - s.alloc0)
	}
	s.reg.record(s.cat, s.name, s.startNs, endNs, 0, allocs)
}

// Entry is one attribution bucket: everything recorded under a
// (category, name) pair.
type Entry struct {
	Cat  string
	Name string
	// Count is the number of spans/observations recorded.
	Count int64
	// TotalNs is the summed wall time.
	TotalNs int64
	// Counters holds named attribution dimensions (edges, rows,
	// tile_width, allocs, ...). Add accumulates; Set overwrites.
	Counters map[string]int64
}

// Event is one completed span in the trace buffer, in a shape that maps
// 1:1 onto a Chrome trace-event "X" record.
type Event struct {
	Cat     string
	Name    string
	StartNs int64
	DurNs   int64
	// TID is a caller-chosen lane (serve uses the request/batch id so
	// chrome://tracing draws one row per request); 0 for plain spans.
	TID int64
}

// maxEventsDefault bounds the trace buffer; older events are kept,
// overflow is counted in DroppedEvents. 16384 events cover several
// thousand execution units — more than one EXPLAIN ANALYZE run needs.
const maxEventsDefault = 16384

// Registry accumulates attribution entries and a bounded event trace.
// All methods are safe for concurrent use.
type Registry struct {
	mu        sync.Mutex
	entries   map[string]*Entry
	order     []string // insertion order of entry keys, for stable output
	events    []Event
	maxEvents int
	dropped   int64
}

// Default is the process-wide registry every package-level helper uses.
var Default = NewRegistry()

// NewRegistry returns an empty registry with the default event-buffer
// bound.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*Entry), maxEvents: maxEventsDefault}
}

func (r *Registry) entry(cat, name string) *Entry {
	key := cat + "\x00" + name
	e, ok := r.entries[key]
	if !ok {
		e = &Entry{Cat: cat, Name: name, Counters: make(map[string]int64)}
		r.entries[key] = e
		r.order = append(r.order, key)
	}
	return e
}

func (r *Registry) record(cat, name string, startNs, endNs, tid, allocs int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entry(cat, name)
	e.Count++
	e.TotalNs += endNs - startNs
	if allocs > 0 {
		e.Counters["allocs"] += allocs
	}
	if len(r.events) < r.maxEvents {
		r.events = append(r.events, Event{Cat: cat, Name: name, StartNs: startNs, DurNs: endNs - startNs, TID: tid})
	} else {
		r.dropped++
	}
}

// Observe records a pre-measured duration (for call sites that already
// time themselves, like the pipeline's stage metrics) without starting a
// span. No-op when tracing is disabled.
func Observe(cat, name string, d time.Duration) { Default.Observe(cat, name, d) }

// Observe records a pre-measured duration on r; see the package-level
// Observe.
func (r *Registry) Observe(cat, name string, d time.Duration) {
	if !enabled.Load() {
		return
	}
	now := time.Now().UnixNano()
	r.record(cat, name, now-int64(d), now, 0, 0)
}

// ObserveEvent records a pre-measured duration on a specific trace lane
// (TID), so per-request span trees group in chrome://tracing. No-op when
// tracing is disabled.
func ObserveEvent(cat, name string, start time.Time, d time.Duration, tid int64) {
	Default.ObserveEvent(cat, name, start, d, tid)
}

// ObserveEvent records a lane-tagged duration on r; see the package-level
// ObserveEvent.
func (r *Registry) ObserveEvent(cat, name string, start time.Time, d time.Duration, tid int64) {
	if !enabled.Load() {
		return
	}
	s := start.UnixNano()
	r.record(cat, name, s, s+int64(d), tid, 0)
}

// Add accumulates v into a named counter of the (cat, name) entry. No-op
// when tracing is disabled.
func Add(cat, name, counter string, v int64) { Default.Add(cat, name, counter, v) }

// Add accumulates a counter on r; see the package-level Add.
func (r *Registry) Add(cat, name, counter string, v int64) {
	if !enabled.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entry(cat, name).Counters[counter] += v
}

// Set overwrites a named counter of the (cat, name) entry (for
// plan-style facts like the chosen tile width, where accumulation would
// be meaningless). No-op when tracing is disabled.
func Set(cat, name, counter string, v int64) { Default.Set(cat, name, counter, v) }

// Set overwrites a counter on r; see the package-level Set.
func (r *Registry) Set(cat, name, counter string, v int64) {
	if !enabled.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entry(cat, name).Counters[counter] = v
}

// Reset clears all entries and the event buffer (the enable flags are
// untouched). EXPLAIN ANALYZE resets between warm-up and measurement.
func Reset() { Default.Reset() }

// Reset clears r; see the package-level Reset.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = make(map[string]*Entry)
	r.order = nil
	r.events = nil
	r.dropped = 0
}

// Snapshot returns deep copies of all entries in first-recorded order.
func Snapshot() []Entry { return Default.Snapshot() }

// Snapshot copies r's entries; see the package-level Snapshot.
func (r *Registry) Snapshot() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, 0, len(r.order))
	for _, key := range r.order {
		e := r.entries[key]
		c := Entry{Cat: e.Cat, Name: e.Name, Count: e.Count, TotalNs: e.TotalNs,
			Counters: make(map[string]int64, len(e.Counters))}
		for k, v := range e.Counters {
			c.Counters[k] = v
		}
		out = append(out, c)
	}
	return out
}

// Events returns a copy of the trace buffer plus the overflow count.
func Events() ([]Event, int64) { return Default.Events() }

// Events copies r's trace buffer; see the package-level Events.
func (r *Registry) Events() ([]Event, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...), r.dropped
}
