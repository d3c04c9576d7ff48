package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// SlowLog is the EventSink behind /debug/slow. It retains the N slowest
// successful queries seen so far (a new one replaces the fastest retained once
// the buffer is full) plus a same-sized ring of the most recent failures —
// kept by recency, not duration: a panic is worth finding even when the query
// died fast. What it keeps is the queries' wide events themselves, so a 5xx's
// X-Request-Id leads to its error text and, for a defect, its stack. Memory is
// bounded regardless of traffic volume. It is safe for concurrent use.
type SlowLog struct {
	mu       sync.Mutex
	cap      int
	slowest  []*Event
	failures *EventRing // the last cap failed queries
}

// NewSlowLog creates a slow log retaining the n slowest queries and the n
// most recent failures (n <= 0 defaults to 16).
func NewSlowLog(n int) *SlowLog {
	if n <= 0 {
		n = 16
	}
	return &SlowLog{cap: n, failures: NewEventRing(n)}
}

// Emit offers one completed query to the log: an event with error text goes
// to the failure ring, any other competes for a slowest slot.
func (sl *SlowLog) Emit(ev *Event) {
	if ev.Error != "" {
		sl.failures.Emit(ev)
		return
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if len(sl.slowest) < sl.cap {
		sl.slowest = append(sl.slowest, ev)
		return
	}
	// Full: replace the fastest retained event if this one is slower.
	min := 0
	for i, e := range sl.slowest {
		if e.TotalUs < sl.slowest[min].TotalUs {
			min = i
		}
	}
	if ev.TotalUs > sl.slowest[min].TotalUs {
		sl.slowest[min] = ev
	}
}

// Snapshot returns the retained successful queries, slowest first.
func (sl *SlowLog) Snapshot() []*Event {
	sl.mu.Lock()
	out := append([]*Event(nil), sl.slowest...)
	sl.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].TotalUs > out[j].TotalUs })
	return out
}

// Failures returns the retained failed queries, most recent first.
func (sl *SlowLog) Failures() []*Event { return sl.failures.Snapshot() }

// Format renders the slow log for terminal or /debug/slow display: the
// slowest successes first, then the recent-failure ring.
func (sl *SlowLog) Format() string {
	slowest, failures := sl.Snapshot(), sl.Failures()
	var sb strings.Builder
	if len(slowest) == 0 {
		sb.WriteString("slow-query log: empty\n")
	} else {
		fmt.Fprintf(&sb, "slow-query log: %d slowest queries (capacity %d)\n", len(slowest), sl.cap)
	}
	for i, ev := range slowest {
		writeRetained(&sb, '#', i+1, ev)
	}
	if len(failures) > 0 {
		fmt.Fprintf(&sb, "recent failures: %d retained (capacity %d), most recent first\n", len(failures), sl.cap)
	}
	for i, ev := range failures {
		writeRetained(&sb, '!', i+1, ev)
	}
	return sb.String()
}

// writeRetained renders one retained event: duration, completion time and
// request ID, the query, then whatever the event has of error text, phase
// trace and stack.
func writeRetained(sb *strings.Builder, mark byte, rank int, ev *Event) {
	fmt.Fprintf(sb, "%c%d  %v  %s", mark, rank,
		time.Duration(ev.TotalUs)*time.Microsecond, ev.Time.Format(time.RFC3339))
	if ev.RequestID != "" {
		fmt.Fprintf(sb, "  rid=%s", ev.RequestID)
	}
	body := ev.Query + "\n"
	if ev.Error != "" {
		body += "error: " + ev.Error + "\n"
	}
	if ev.trace != nil {
		body += ev.trace.Format()
	}
	body = strings.TrimRight(body+ev.Stack, "\n")
	sb.WriteString("\n    " + strings.ReplaceAll(body, "\n", "\n    ") + "\n")
}
