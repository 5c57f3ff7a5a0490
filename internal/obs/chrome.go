package obs

import (
	"encoding/json"
	"sort"
)

// Chrome trace_event export: spans become complete ("ph":"X") events a
// chrome://tracing or Perfetto load renders as a flame chart. Services
// map to processes (with process_name metadata), span nesting depth
// maps to threads, and timestamps are microseconds relative to the
// earliest span so traces from different machines still line up
// visually.

// ChromeEvent is one trace_event entry. Only the fields this exporter
// uses are modeled; see the Chrome Trace Event Format spec.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// EncodeChrome wraps events in the trace-file envelope. Events are
// emitted in the order given.
func EncodeChrome(events []ChromeEvent) ([]byte, error) {
	b, err := json.MarshalIndent(chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ChromeTrace renders one trace's spans as a trace_event JSON file.
// Deterministic for a deterministic input: services sort to stable
// pids, spans sort by (start, span ID), and depths derive only from
// parent links.
func ChromeTrace(spans []SpanRecord) ([]byte, error) {
	spans = append([]SpanRecord(nil), spans...)
	SortSpans(spans)

	// Service → pid, in sorted-name order.
	serviceSet := map[string]bool{}
	for _, sp := range spans {
		serviceSet[sp.Service] = true
	}
	services := make([]string, 0, len(serviceSet))
	for s := range serviceSet {
		services = append(services, s)
	}
	sort.Strings(services)
	pidOf := make(map[string]int, len(services))
	for i, s := range services {
		pidOf[s] = i + 1
	}

	// Depth = ancestor count within this span set (tid). Cycles or
	// missing parents terminate the walk at depth 0.
	byID := make(map[string]SpanRecord, len(spans))
	for _, sp := range spans {
		byID[sp.SpanID] = sp
	}
	depthOf := func(sp SpanRecord) int {
		depth := 0
		for p := sp.Parent; p != "" && depth < 64; depth++ {
			parent, ok := byID[p]
			if !ok {
				break
			}
			p = parent.Parent
		}
		return depth
	}

	var minStart int64
	for i, sp := range spans {
		if i == 0 || sp.StartNS < minStart {
			minStart = sp.StartNS
		}
	}

	events := make([]ChromeEvent, 0, len(spans)+len(services))
	for _, s := range services {
		name := s
		if name == "" {
			name = "(unnamed)"
		}
		events = append(events, ChromeEvent{
			Name: "process_name", Ph: "M", PID: pidOf[s],
			Args: map[string]any{"name": name},
		})
	}
	for _, sp := range spans {
		args := map[string]any{
			"trace_id": sp.TraceID,
			"span_id":  sp.SpanID,
		}
		if sp.Tenant != "" {
			args["tenant"] = sp.Tenant
		}
		if sp.JobID != "" {
			args["job_id"] = sp.JobID
		}
		if sp.Error != "" {
			args["error"] = sp.Error
		}
		for _, kv := range sp.Attrs {
			args[kv.Key] = kv.Value
		}
		events = append(events, ChromeEvent{
			Name: sp.Name,
			Cat:  "span",
			Ph:   "X",
			TS:   float64(sp.StartNS-minStart) / 1e3,
			Dur:  float64(sp.DurNS) / 1e3,
			PID:  pidOf[sp.Service],
			TID:  depthOf(sp),
			Args: args,
		})
	}
	return EncodeChrome(events)
}
