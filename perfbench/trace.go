package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Spans of one op share
// Op, the ID of the op's root span; Parent is 0 for that root. Times
// are nanoseconds since the recorder's origin. Self is the span's
// duration minus the part its children cover, filled in by finish.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	// Allocs counts heap allocations made inside the span, where the
	// recorder measured them.
	Allocs uint64 `json:"allocs,omitempty"`
}

// recorder keeps spans in memory; write puts them in a file when the
// run ends. It is used from one goroutine at a time.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.origin)) }

// add records a span over [start, end] and returns its ID. A parent of
// 0 starts a new op.
func (r *recorder) add(parent int, name string, start, end time.Time, allocs uint64) int {
	id := len(r.spans) + 1
	op := id
	if parent != 0 {
		op = r.spans[parent-1].Op
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: r.at(start), End: r.at(end), Allocs: allocs})
	return id
}

// finish computes every span's self time.
func (r *recorder) finish() { selfTimes(r.spans) }

// selfTimes sets Self on each span: its duration minus the union of its
// children's intervals clipped to it. Spans must be indexed by ID-1.
func selfTimes(spans []span) {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, cur := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// selfByLayer sums self time (ns) and allocations per span name over
// all ops, and counts the ops.
func selfByLayer(spans []span) (self map[string]int64, allocs map[string]uint64, ops int) {
	self = map[string]int64{}
	allocs = map[string]uint64{}
	for _, s := range spans {
		if s.Parent == 0 {
			ops++
		}
		self[s.Name] += s.Self
		allocs[s.Name] += s.Allocs
	}
	return self, allocs, ops
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(struct {
		Origin string `json:"origin"`
		Spans  []span `json:"spans"`
	}{r.origin.UTC().Format(time.RFC3339Nano), r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
