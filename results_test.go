package ftmc

// The results/ archives are pinned to what their commands print. Skipped
// under -short, like the CLI tests.

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the results/ archives from current output")

// TestResultsArchive runs the command behind each single-command archive
// in results/ with `go run` and requires its stdout to equal the file
// byte for byte, so an archive can no longer drift from the code that
// prints it. With -update it rewrites the files instead:
//
//	go test -run '^TestResultsArchive$' -update .
//
// results/README.md gives each file's command and says why
// sensitivity.txt and explore_fms.txt are not pinned.
func TestResultsArchive(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI runs skipped in -short mode")
	}
	for _, a := range []struct {
		file string
		args []string
	}{
		{"fig1_fig2.txt", []string{"./cmd/ftmc-fms"}},
		{"fig1_fig2_plots.txt", []string{"./cmd/ftmc-fms", "-plot"}},
		{"os_sweep.txt", []string{"./cmd/ftmc-sense", "-what", "os"}},
		{"fig3_500sets.txt", []string{"./cmd/ftmc-accept", "-sets", "500"}},
		{"fig3a_plot.txt", []string{"./cmd/ftmc-accept", "-fig", "3a", "-sets", "150", "-plot"}},
		{"report.md", []string{"./cmd/ftmc-report"}},
	} {
		t.Run(a.file, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command("go", append([]string{"run"}, a.args...)...)
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("go run %s: %v\n%s", strings.Join(a.args, " "), err, stderr.Bytes())
			}
			path := filepath.Join("results", a.file)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				i := 0
				for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
					i++
				}
				line := func(ls []string) string {
					if i < len(ls) {
						return ls[i]
					}
					return "(end of output)"
				}
				t.Errorf("%s differs from `go run %s` at line %d:\n got %q\nwant %q\n(if the change is intended, re-run with -update)",
					path, strings.Join(a.args, " "), i+1, line(gl), line(wl))
			}
		})
	}
}
