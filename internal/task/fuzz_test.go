package task

import (
	"encoding/json"
	"testing"
)

// FuzzSetUnmarshal checks that arbitrary JSON never panics the task-set
// decoder and that anything it accepts re-marshals and re-parses to an
// equivalent set.
func FuzzSetUnmarshal(f *testing.F) {
	f.Add(`{"tasks":[{"name":"a","T":"60ms","C":"5ms","level":"B","f":1e-5},{"T":"40ms","C":"7ms","level":"D","f":1e-5}]}`)
	f.Add(`{"tasks":[]}`)
	f.Add(`{"tasks":[{"T":"0","C":"1","level":"B","f":0}]}`)
	f.Add(`{`)
	f.Add(`{"tasks":[{"T":"1h","D":"30m","C":"1s","level":"A","f":0.5},{"T":"1s","C":"1ms","level":"E","f":0}]}`)
	f.Add(`{"tasks":[{"name":"a","T":"100ms","Deadline":"50ms","C":"10ms","level":"B","f":1e-5},{"T":"40ms","C":"7ms","level":"D","f":1e-5}]}`)
	f.Fuzz(func(t *testing.T, data string) {
		var s Set
		if err := json.Unmarshal([]byte(data), &s); err != nil {
			return
		}
		out, err := json.Marshal(&s)
		if err != nil {
			t.Fatalf("accepted set failed to marshal: %v", err)
		}
		var back Set
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("marshalled set failed to re-parse: %v\n%s", err, out)
		}
		if back.Len() != s.Len() {
			t.Fatalf("round trip changed task count: %d -> %d", s.Len(), back.Len())
		}
		for i := range s.Tasks() {
			if s.Tasks()[i] != back.Tasks()[i] {
				t.Fatalf("task %d changed: %+v -> %+v", i, s.Tasks()[i], back.Tasks()[i])
			}
		}
	})
}
