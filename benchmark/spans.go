package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the driver
// around its calls into a module. Run identifies the program run or request
// the span belongs to; Parent is the index of the enclosing span, -1 for a
// run's root.
type span struct {
	Name    string `json:"name"`
	Group   string `json:"group"` // program name, or "request" on serve
	Run     int    `json:"run"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spans keeps every span of a traced run in memory until the run ends. A
// nil *spans records nothing, which is how the timed run keeps tracing off.
type spans struct {
	mu    sync.Mutex
	t0    time.Time
	all   []span
	nextR int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// newRun hands out the identifier shared by the spans of one program run or
// request.
func (s *spans) newRun() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextR++
	return s.nextR
}

func (s *spans) begin(name, group string, run, parent int) int {
	if s == nil {
		return -1
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.all = append(s.all, span{Name: name, Group: group, Run: run, Parent: parent, StartNS: now, EndNS: -1})
	return len(s.all) - 1
}

func (s *spans) end(id int) {
	if s == nil {
		return
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	s.all[id].EndNS = now
	s.mu.Unlock()
}

// selfNS is a span's duration minus the part its children cover.
func (s *spans) selfNS() []int64 {
	self := make([]int64, len(s.all))
	for i, sp := range s.all {
		self[i] += sp.EndNS - sp.StartNS
		if sp.Parent >= 0 {
			self[sp.Parent] -= sp.EndNS - sp.StartNS
		}
	}
	return self
}

// perGroupMedian sums, over groups, the median duration (or self time) of
// the spans called name, in seconds. One group is one program, so the sum
// lines up with t1_s; serve has the single group "request".
func (s *spans) perGroupMedian(name string, self bool) stat {
	if s == nil {
		return stat{}
	}
	var selfNS []int64
	if self {
		selfNS = s.selfNS()
	}
	byGroup := map[string][]float64{}
	var order []string
	for i, sp := range s.all {
		if sp.Name != name || sp.EndNS < 0 {
			continue
		}
		d := float64(sp.EndNS - sp.StartNS)
		if self {
			d = float64(selfNS[i])
		}
		if _, ok := byGroup[sp.Group]; !ok {
			order = append(order, sp.Group)
		}
		byGroup[sp.Group] = append(byGroup[sp.Group], d/1e9)
	}
	var out stat
	for _, g := range order {
		st := summarize(byGroup[g])
		out.Value += st.Value
		out.Q1 += st.Q1
		out.Q3 += st.Q3
		out.N += st.N
	}
	return out
}

func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(s.all); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
