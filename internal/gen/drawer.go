package gen

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/task"
	"repro/internal/timeunit"
)

// Drawer draws random dual-criticality task sets into a per-worker arena:
// the task slice, the UUnifast utilization buffer, the task.Set and the
// "τN" name strings are all allocated once and reused across draws, so a
// Monte-Carlo worker pulling thousands of sets (the Fig. 3 engine) incurs
// zero steady-state allocations per draw.
//
// Determinism: TaskSet (Appendix C) and UUnifastTaskSet run the same
// draw loop once on the caller's RNG, so Draw(seed), which reseeds the
// drawer's private RNG, gives the set they give on a fresh
// rand.New(rand.NewSource(seed)) (TestDrawerMatchesTaskSet). The private
// RNG runs on source, math/rand's generator with a cheaper Seed, which
// gives the same stream for every seed.
//
// Ownership: the returned *task.Set aliases the arena and is valid only
// until the next Draw on the same Drawer. A Drawer must not be shared
// across goroutines.
type Drawer struct {
	p     Params
	n     int // 0: Appendix C; >= 2: UUnifast fixed task count
	rng   *rand.Rand
	tasks []task.Task
	utils []float64
	set   task.Set
	names []string // cached "τ1", "τ2", ... labels
}

// NewDrawer validates the parameters once and returns a drawer for the
// Appendix C generator (tasksPerSet == 0) or the UUnifast generator with
// the given fixed task count (tasksPerSet >= 2).
func NewDrawer(p Params, tasksPerSet int) (*Drawer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if tasksPerSet != 0 && tasksPerSet < 2 {
		return nil, fmt.Errorf("gen: dual-criticality UUnifast set needs n >= 2, got %d", tasksPerSet)
	}
	// Draw seeds the source before every draw.
	return &Drawer{p: p, n: tasksPerSet, rng: rand.New(new(source))}, nil
}

// Retarget moves the drawer to a new target utilization, revalidating the
// amended parameters while keeping the arena. Campaign sweeps walk the
// utilization axis with one drawer per worker instead of rebuilding a
// drawer (and its arena) at every data point.
func (d *Drawer) Retarget(targetU float64) error {
	if d.p.TargetU == targetU {
		return nil
	}
	p := d.p
	p.TargetU = targetU
	if err := p.Validate(); err != nil {
		return err
	}
	d.p = p
	return nil
}

// name returns the cached "τi" label (1-based).
func (d *Drawer) name(i int) string {
	for len(d.names) < i {
		d.names = append(d.names, "τ"+strconv.Itoa(len(d.names)+1))
	}
	return d.names[i-1]
}

// Draw reseeds the drawer's RNG and draws one task set into the arena.
// The returned set aliases the arena: it is valid until the next Draw.
func (d *Drawer) Draw(seed int64) (*task.Set, error) {
	d.rng.Seed(seed)
	return d.draw()
}

// draw is the one draw loop of both generators: it draws candidates from
// the RNG's current state into the arena, retrying degenerate ones (a
// class missing, or too little utilization left for a 1 µs WCET), up to
// 1000 attempts. The generators reject a single-class candidate
// themselves, so a retry builds no task.Set error; Reset refuses a
// generated task only for a NaN f, which Params.Validate lets through.
func (d *Drawer) draw() (*task.Set, error) {
	for attempt := 0; attempt < 1000; attempt++ {
		var ok bool
		if d.n > 0 {
			ok = d.drawUUnifast()
		} else {
			ok = d.drawAppendixC()
		}
		if ok && d.set.Reset(d.tasks) == nil {
			return &d.set, nil
		}
	}
	if d.n > 0 {
		return nil, fmt.Errorf("gen: could not draw a UUnifast dual-criticality set (n=%d, U=%g)", d.n, d.p.TargetU)
	}
	return nil, fmt.Errorf("gen: could not draw a dual-criticality set with U=%g after 1000 attempts", d.p.TargetU)
}

// DrawKeyed draws the task set addressed by k: the workload stream of
// the (seed, panel, point, set) coordinates, via Draw. Keyed callers
// (the campaign engines, distributed workers) and legacy seed-passing
// callers produce bit-identical sets for matching coordinates.
func (d *Drawer) DrawKeyed(k SimulationKey) (*task.Set, error) {
	return d.Draw(k.Stream(SubsystemWorkload))
}

// drawAppendixC fills the arena with one Appendix C candidate. Reports
// whether the draw is usable: both classes drawn.
func (d *Drawer) drawAppendixC() bool {
	p, rng := d.p, d.rng
	d.tasks = d.tasks[:0]
	total, nHI := 0.0, 0
	for total < p.TargetU {
		u := p.UMin + rng.Float64()*(p.UMax-p.UMin)
		if total+u > p.TargetU {
			u = p.TargetU - total
		}
		period := p.TMin + timeunit.Time(rng.Int63n(int64(p.TMax-p.TMin)+1))
		wcet := timeunit.Time(u * period.Float())
		if wcet < 1 {
			// A residual sliver that does not amount to a whole
			// microsecond of WCET: absorb it by stopping here.
			break
		}
		level := p.LOLevel
		if rng.Float64() < p.PHI {
			level = p.HILevel
			nHI++
		}
		d.tasks = append(d.tasks, task.Task{
			Name:     d.name(len(d.tasks) + 1),
			Period:   period,
			Deadline: period,
			WCET:     wcet,
			Level:    level,
			FailProb: p.FailProb,
		})
		total += wcet.Float() / period.Float()
	}
	return 0 < nHI && nHI < len(d.tasks)
}

// drawUUnifast fills the arena with one UUnifast candidate. Reports
// whether the draw is usable: every WCET at least 1 µs and both classes
// drawn.
func (d *Drawer) drawUUnifast() bool {
	p, rng, n := d.p, d.rng, d.n
	if cap(d.utils) < n {
		d.utils = make([]float64, n)
	}
	utils := d.utils[:n]
	uunifast(rng, utils, p.TargetU)
	d.tasks = d.tasks[:0]
	nHI := 0
	for i, u := range utils {
		period := p.TMin + timeunit.Time(rng.Int63n(int64(p.TMax-p.TMin)+1))
		wcet := timeunit.Time(u * period.Float())
		if wcet < 1 {
			return false
		}
		level := p.LOLevel
		if rng.Float64() < p.PHI {
			level = p.HILevel
			nHI++
		}
		d.tasks = append(d.tasks, task.Task{
			Name:     d.name(i + 1),
			Period:   period,
			Deadline: period,
			WCET:     wcet,
			Level:    level,
			FailProb: p.FailProb,
		})
	}
	return 0 < nHI && nHI < n
}
