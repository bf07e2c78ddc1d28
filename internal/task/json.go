package task

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/criticality"
	"repro/internal/timeunit"
)

// jsonTask is the on-disk form of a task. Times are strings accepted by
// timeunit.Parse ("25ms", "2s", bare numbers are milliseconds), so task
// files read like the paper's tables.
type jsonTask struct {
	Name     string            `json:"name,omitempty"`
	Period   string            `json:"T"`
	Deadline string            `json:"D,omitempty"` // defaults to T (implicit deadline)
	WCET     string            `json:"C"`
	Level    criticality.Level `json:"level"`
	FailProb float64           `json:"f"`
}

type jsonSet struct {
	Tasks []jsonTask `json:"tasks"`
}

// MarshalJSON implements json.Marshaler for Set.
func (s *Set) MarshalJSON() ([]byte, error) {
	out := jsonSet{Tasks: make([]jsonTask, 0, len(s.tasks))}
	for _, t := range s.tasks {
		jt := jsonTask{
			Name:     t.Name,
			Period:   t.Period.String(),
			WCET:     t.WCET.String(),
			Level:    t.Level,
			FailProb: t.FailProb,
		}
		if t.Deadline != t.Period {
			jt.Deadline = t.Deadline.String()
		}
		out.Tasks = append(out.Tasks, jt)
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler for Set. An unknown field,
// in the set object or in a task, is an error: a misspelled "D" would
// otherwise be dropped and the implicit deadline analysed in its place.
func (s *Set) UnmarshalJSON(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var in jsonSet
	if err := dec.Decode(&in); err != nil {
		return fmt.Errorf("task: decoding set: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("task: decoding set: trailing data after the set object")
	}
	tasks := make([]Task, 0, len(in.Tasks))
	for i, jt := range in.Tasks {
		period, err := timeunit.Parse(jt.Period)
		if err != nil {
			return fmt.Errorf("task %d (%q): T: %v", i+1, jt.Name, err)
		}
		deadline := period
		if jt.Deadline != "" {
			deadline, err = timeunit.Parse(jt.Deadline)
			if err != nil {
				return fmt.Errorf("task %d (%q): D: %v", i+1, jt.Name, err)
			}
		}
		wcet, err := timeunit.Parse(jt.WCET)
		if err != nil {
			return fmt.Errorf("task %d (%q): C: %v", i+1, jt.Name, err)
		}
		tasks = append(tasks, Task{
			Name:     jt.Name,
			Period:   period,
			Deadline: deadline,
			WCET:     wcet,
			Level:    jt.Level,
			FailProb: jt.FailProb,
		})
	}
	built, err := NewSet(tasks)
	if err != nil {
		return err
	}
	*s = *built
	return nil
}
