package main

import (
	"sort"
	"strings"
	"time"

	"mmjoin/internal/trace"
)

// family maps an execution phase name to the layer family the traced
// run reports self time for.
func family(phase string) string {
	switch {
	case strings.HasPrefix(phase, "partition"):
		return "partition"
	case phase == "build", phase == "classify", phase == "bulkload":
		return "build"
	case phase == "sort":
		return "sort"
	case strings.HasPrefix(phase, "spill"):
		return "spill"
	}
	return "probe" // probe, join, join(resident), join(spilled), merge-join
}

// phaseTime is one family's traced phase time and the self time
// within it: the part no worker span of the same phase covers
// (dispatch, scheduling and the driver's own work).
type phaseTime struct{ self, total time.Duration }

// selfTimes accumulates phase and self time per phase family.
type selfTimes map[string]phaseTime

func (st *selfTimes) note(f string, self, total time.Duration) {
	if *st == nil {
		*st = selfTimes{}
	}
	pt := (*st)[f]
	pt.self += self
	pt.total += total
	(*st)[f] = pt
}

func (st *selfTimes) merge(o selfTimes) {
	for f, pt := range o {
		st.note(f, pt.self, pt.total)
	}
}

// add folds in the spans of one traced execution. A tracer records one
// whole-phase span on its driver track plus worker spans nested inside
// it under the same name; a span not inside an earlier same-named span
// starts a new phase.
func (st *selfTimes) add(spans []trace.Span) {
	byName := map[string][]trace.Span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	for name, group := range byName {
		sort.Slice(group, func(i, j int) bool {
			if group[i].Start != group[j].Start {
				return group[i].Start < group[j].Start
			}
			return group[i].Dur > group[j].Dur
		})
		f := family(name)
		phase := group[0]
		var covered time.Duration
		cursor := phase.Start
		for _, s := range group[1:] {
			end := s.Start + s.Dur
			if end <= phase.Start+phase.Dur {
				// Worker span: add the part not already covered.
				if lo := max(s.Start, cursor); end > lo {
					covered += end - lo
					cursor = end
				}
				continue
			}
			st.note(f, phase.Dur-covered, phase.Dur)
			phase, covered, cursor = s, 0, s.Start
		}
		st.note(f, phase.Dur-covered, phase.Dur)
	}
}

// metrics sets trace.<family>.self_pct; 0 for families never traced.
func (st selfTimes) metrics(m metrics) {
	for _, f := range phaseFamilies {
		pct := 0.0
		if pt := st[f]; pt.total > 0 {
			pct = 100 * float64(pt.self) / float64(pt.total)
		}
		m.set("trace."+f+".self_pct", pct, "%")
	}
}
