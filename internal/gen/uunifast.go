package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/task"
)

// uunifast fills utils with len(utils) per-task utilizations summing
// exactly to totalU, uniformly over the simplex — the de-facto standard
// generator of the real-time literature (Bini & Buttazzo, 2005). The
// paper's Appendix C generator instead adds u ~ U[u−, u+] tasks until the
// target is reached, which skews task counts with U; UUnifast holds the
// count fixed and lets the split vary, so the two generators bracket the
// workload-shape sensitivity of the Fig. 3 results. utils must not be
// empty.
func uunifast(rng *rand.Rand, utils []float64, totalU float64) {
	n := len(utils)
	sum := totalU
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(rng.Float64(), 1/float64(n-1-i))
		utils[i] = sum - next
		sum = next
	}
	utils[n-1] = sum
}

// UUnifastTaskSet draws a dual-criticality set with exactly n tasks whose
// utilizations follow UUnifast; periods, classes and the failure
// probability come from the same Params as the Appendix C generator
// (UMin/UMax are ignored — UUnifast owns the split). Draws that
// degenerate (a class missing, or a slice too small for 1 µs of WCET)
// are retried. Like TaskSet, it runs a Drawer's draw loop once on rng.
func UUnifastTaskSet(rng *rand.Rand, n int, p Params) (*task.Set, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, fmt.Errorf("gen: dual-criticality UUnifast set needs n >= 2, got %d", n)
	}
	return (&Drawer{p: p, n: n, rng: rng}).draw()
}
