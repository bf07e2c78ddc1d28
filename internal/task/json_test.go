package task

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/criticality"
)

func TestJSONRoundTrip(t *testing.T) {
	orig := MustNewSet(example31())
	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Set
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, b)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("Len = %d, want %d", back.Len(), orig.Len())
	}
	for i, tk := range back.Tasks() {
		want := orig.Tasks()[i]
		if tk != want {
			t.Errorf("task %d: %+v != %+v", i, tk, want)
		}
	}
	if back.Dual() != orig.Dual() {
		t.Errorf("Dual = %v, want %v", back.Dual(), orig.Dual())
	}
}

func TestUnmarshalHumanReadable(t *testing.T) {
	// Bare numbers are milliseconds; D defaults to T.
	src := `{"tasks":[
		{"name":"loc","T":"200","C":"20","level":"B","f":1e-5},
		{"name":"plan","T":"1s","C":"200ms","level":"C","f":1e-5}
	]}`
	var s Set
	if err := json.Unmarshal([]byte(src), &s); err != nil {
		t.Fatal(err)
	}
	loc := s.Tasks()[0]
	if loc.Period != ms(200) || loc.Deadline != ms(200) || loc.WCET != ms(20) {
		t.Errorf("loc = %+v", loc)
	}
	plan := s.Tasks()[1]
	if plan.Period != ms(1000) || plan.WCET != ms(200) || plan.Level != criticality.LevelC {
		t.Errorf("plan = %+v", plan)
	}
}

func TestUnmarshalExplicitDeadline(t *testing.T) {
	src := `{"tasks":[
		{"T":"100","D":"80","C":"10","level":"A","f":1e-6},
		{"T":"50","C":"5","level":"D","f":1e-6}
	]}`
	var s Set
	if err := json.Unmarshal([]byte(src), &s); err != nil {
		t.Fatal(err)
	}
	if s.Tasks()[0].Deadline != ms(80) {
		t.Errorf("D = %v, want 80ms", s.Tasks()[0].Deadline)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []struct {
		name, src, substr string
	}{
		{"bad json", `{`, "JSON"},
		{"bad T", `{"tasks":[{"T":"x","C":"1","level":"B","f":0}]}`, "T"},
		{"bad D", `{"tasks":[{"T":"1","D":"y","C":"1","level":"B","f":0}]}`, "D"},
		{"bad C", `{"tasks":[{"T":"1","C":"z","level":"B","f":0}]}`, "C"},
		{"bad level", `{"tasks":[{"T":"1","C":"1","level":"Q","f":0}]}`, "level"},
		{"empty", `{"tasks":[]}`, "empty"},
		{"one level", `{"tasks":[{"T":"1","C":"1","level":"B","f":0},{"T":"2","C":"1","level":"B","f":0}]}`, "levels"},
		// A task spelling its deadline "Deadline" would otherwise decode
		// with D = T and be analysed as an implicit-deadline task.
		{"unknown task field", `{"tasks":[{"T":"100","Deadline":"50","C":"10","level":"B","f":0},{"T":"40","C":"7","level":"D","f":0}]}`, "unknown field"},
		{"unknown set field", `{"tasks":[{"T":"60","C":"5","level":"B","f":0},{"T":"40","C":"7","level":"D","f":0}],"os_hours":10}`, "unknown field"},
	}
	for _, c := range cases {
		var s Set
		err := json.Unmarshal([]byte(c.src), &s)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.substr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.substr)
		}
	}
	// Called directly, UnmarshalJSON still refuses a second value.
	var s Set
	if err := s.UnmarshalJSON([]byte(`{"tasks":[]} {}`)); err == nil {
		t.Errorf("trailing data accepted")
	}
}

func TestMarshalOmitsImplicitDeadline(t *testing.T) {
	s := MustNewSet(example31())
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"D":`) {
		t.Errorf("implicit deadlines should be omitted: %s", b)
	}
}
